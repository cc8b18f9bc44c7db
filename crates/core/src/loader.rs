//! Data loading: raw binary files and the "nclite" container format.
//!
//! The paper's data loader accepts NetCDF, HDF5, and raw binary. Real NetCDF
//! and HDF5 require C libraries unavailable here; `nclite` is a minimal
//! self-describing container with the same role — several named,
//! shape-annotated variables per file — so the loader exercises the same
//! code path (open container → enumerate variables → read each as an
//! N-dimensional float array).

use ocelot_sz::{Dataset, SzError};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::path::Path;

const MAGIC: [u8; 4] = *b"NCL1";

/// An in-memory nclite container: named f32 variables.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NcliteFile {
    variables: BTreeMap<String, Dataset<f32>>,
}

impl NcliteFile {
    /// Creates an empty container.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds or replaces a variable.
    ///
    /// # Panics
    /// Panics if `name` is empty or longer than 255 bytes.
    pub fn insert(&mut self, name: impl Into<String>, data: Dataset<f32>) {
        let name = name.into();
        assert!(!name.is_empty() && name.len() <= 255, "variable name must be 1-255 bytes");
        self.variables.insert(name, data);
    }

    /// Looks up a variable.
    pub fn get(&self, name: &str) -> Option<&Dataset<f32>> {
        self.variables.get(name)
    }

    /// Variable names, sorted.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.variables.keys().map(String::as_str)
    }

    /// Number of variables.
    pub fn len(&self) -> usize {
        self.variables.len()
    }

    /// Whether the container has no variables.
    pub fn is_empty(&self) -> bool {
        self.variables.is_empty()
    }

    /// Iterates over `(name, data)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Dataset<f32>)> {
        self.variables.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Serializes the container.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&(self.variables.len() as u32).to_le_bytes());
        for (name, data) in &self.variables {
            out.push(name.len() as u8);
            out.extend_from_slice(name.as_bytes());
            out.push(data.ndim() as u8);
            for &d in data.dims() {
                out.extend_from_slice(&(d as u64).to_le_bytes());
            }
            let payload = data.to_le_bytes();
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&payload);
        }
        out
    }

    /// Parses a container.
    ///
    /// # Errors
    /// Returns [`SzError::CorruptStream`] on framing errors.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SzError> {
        let err = |m: &str| SzError::CorruptStream(format!("nclite: {m}"));
        if bytes.len() < 8 || bytes[..4] != MAGIC {
            return Err(err("missing magic"));
        }
        let n = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes")) as usize;
        let mut pos = 8usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], SzError> {
            if *pos + n > bytes.len() {
                return Err(SzError::CorruptStream("nclite: truncated".into()));
            }
            let s = &bytes[*pos..*pos + n];
            *pos += n;
            Ok(s)
        };
        let mut out = NcliteFile::new();
        for _ in 0..n {
            let name_len = take(&mut pos, 1)?[0] as usize;
            if name_len == 0 {
                return Err(err("empty variable name"));
            }
            let name =
                String::from_utf8(take(&mut pos, name_len)?.to_vec()).map_err(|_| err("variable name is not UTF-8"))?;
            let ndim = take(&mut pos, 1)?[0] as usize;
            if ndim == 0 || ndim > 8 {
                return Err(err("invalid rank"));
            }
            let mut dims = Vec::with_capacity(ndim);
            for _ in 0..ndim {
                dims.push(u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8 bytes")) as usize);
            }
            let payload_len = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8 bytes")) as usize;
            let payload = take(&mut pos, payload_len)?;
            let data = Dataset::<f32>::from_le_bytes(dims, payload)?;
            out.insert(name, data);
        }
        if pos != bytes.len() {
            return Err(err("trailing bytes"));
        }
        Ok(out)
    }

    /// Writes the container to a file.
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(&self.to_bytes())
    }

    /// Reads a container from a file.
    ///
    /// # Errors
    /// Propagates I/O errors; corrupt files surface as
    /// `io::ErrorKind::InvalidData`.
    pub fn load(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let mut bytes = Vec::new();
        std::fs::File::open(path)?.read_to_end(&mut bytes)?;
        Self::from_bytes(&bytes).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> NcliteFile {
        let mut f = NcliteFile::new();
        f.insert("temperature", Dataset::from_fn(vec![4, 5], |i| (i[0] * 5 + i[1]) as f32));
        f.insert("pressure", Dataset::from_fn(vec![10], |i| i[0] as f32 * 0.5));
        f
    }

    #[test]
    fn container_round_trip() {
        let f = sample();
        let bytes = f.to_bytes();
        let back = NcliteFile::from_bytes(&bytes).unwrap();
        assert_eq!(f, back);
        assert_eq!(back.names().collect::<Vec<_>>(), vec!["pressure", "temperature"]);
    }

    #[test]
    fn truncation_detected() {
        let bytes = sample().to_bytes();
        assert!(NcliteFile::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(NcliteFile::from_bytes(&bytes[..6]).is_err());
        assert!(NcliteFile::from_bytes(b"XXXX").is_err());
    }

    #[test]
    fn trailing_garbage_detected() {
        let mut bytes = sample().to_bytes();
        bytes.push(0);
        assert!(NcliteFile::from_bytes(&bytes).is_err());
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("ocelot_nclite_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.ncl");
        let f = sample();
        f.save(&path).unwrap();
        let back = NcliteFile::load(&path).unwrap();
        assert_eq!(f, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn get_and_iter() {
        let f = sample();
        assert!(f.get("temperature").is_some());
        assert!(f.get("missing").is_none());
        assert_eq!(f.iter().count(), 2);
        assert_eq!(f.len(), 2);
        assert!(!f.is_empty());
    }
}
