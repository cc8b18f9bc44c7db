//! Transfer sessions: the byte-level workflow tying the executor, grouping,
//! and manifests together — build self-describing archives on the source,
//! restore named datasets on the destination.
//!
//! An archive is a group file (Fig 11 format) whose first member is a JSON
//! manifest of the member names, so a set of archives is fully
//! self-describing: no side channel is needed to decompress and restore
//! filenames on the far side.

use crate::executor::ParallelExecutor;
use crate::grouping::{group_blobs, plan_groups_by_count, ungroup_blobs};
use ocelot_sz::{CompressedBlob, Dataset, LossyConfig, SzError};

/// Reserved name of the embedded manifest member.
const MANIFEST_MEMBER: &str = "__manifest__";

/// A built archive set, ready to transfer.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchiveSet {
    archives: Vec<Vec<u8>>,
    total_raw_bytes: u64,
}

impl ArchiveSet {
    /// The serialized archives (what crosses the WAN).
    pub fn archives(&self) -> &[Vec<u8>] {
        &self.archives
    }

    /// Consumes the set, returning the archive bytes.
    pub fn into_archives(self) -> Vec<Vec<u8>> {
        self.archives
    }

    /// Number of archives.
    pub fn len(&self) -> usize {
        self.archives.len()
    }

    /// Whether the set holds no archives.
    pub fn is_empty(&self) -> bool {
        self.archives.is_empty()
    }

    /// Total compressed bytes across archives.
    pub fn compressed_bytes(&self) -> u64 {
        self.archives.iter().map(|a| a.len() as u64).sum()
    }

    /// Total uncompressed bytes of the source data.
    pub fn raw_bytes(&self) -> u64 {
        self.total_raw_bytes
    }

    /// Overall compression ratio including all framing overhead.
    pub fn overall_ratio(&self) -> f64 {
        self.total_raw_bytes as f64 / self.compressed_bytes().max(1) as f64
    }
}

/// Source-side session: compresses named datasets and packs archives.
#[derive(Debug, Clone)]
pub struct TransferSession {
    executor: ParallelExecutor,
    config: LossyConfig,
}

impl TransferSession {
    /// Creates a session with a worker pool and compression configuration.
    pub fn new(threads: usize, config: LossyConfig) -> Self {
        TransferSession { executor: ParallelExecutor::new(threads), config }
    }

    /// Sets the chunk-parallel codec thread count used inside each file's
    /// compression/decompression (independent of the per-file worker pool).
    ///
    /// # Panics
    /// Panics if `codec_threads == 0`.
    #[must_use]
    pub fn with_codec_threads(mut self, codec_threads: usize) -> Self {
        self.executor = self.executor.with_codec_threads(codec_threads);
        self
    }

    /// The compression configuration in effect.
    pub fn config(&self) -> &LossyConfig {
        &self.config
    }

    /// Compresses `files` in parallel and packs them into `group_count`
    /// self-describing archives.
    ///
    /// # Errors
    /// Propagates compression errors.
    ///
    /// # Panics
    /// Panics if `group_count == 0` or a file name collides with the
    /// reserved manifest member name.
    pub fn build_archives(&self, files: &[(String, Dataset<f32>)], group_count: usize) -> Result<ArchiveSet, SzError> {
        assert!(group_count > 0, "at least one archive");
        assert!(files.iter().all(|(n, _)| n != MANIFEST_MEMBER), "file name '{MANIFEST_MEMBER}' is reserved");
        let outcomes = self.executor.compress_each(files.len(), |i| &files[i].1, &self.config)?;
        // Each blob moves into its archive's member list; packing makes the
        // only copy.
        let mut blobs: Vec<Vec<u8>> = outcomes.into_iter().map(|o| o.blob.into_bytes()).collect();
        let total_raw_bytes: u64 = files.iter().map(|(_, d)| d.nbytes() as u64).sum();
        let plan = plan_groups_by_count(files.len(), group_count.min(files.len().max(1)));
        let mut archives = Vec::with_capacity(plan.len());
        for group in &plan {
            // Each archive is independently self-describing: manifest first.
            let names: Vec<&str> = group.iter().map(|&i| files[i].0.as_str()).collect();
            let manifest = serde_json::to_vec(&names).expect("names serialize");
            let mut members = vec![(MANIFEST_MEMBER.to_string(), manifest)];
            for &i in group {
                members.push((files[i].0.clone(), std::mem::take(&mut blobs[i])));
            }
            let inner_plan: Vec<Vec<usize>> = vec![(0..members.len()).collect()];
            let (mut packed, _) = group_blobs(&members, &inner_plan);
            archives.push(packed.remove(0));
        }
        Ok(ArchiveSet { archives, total_raw_bytes })
    }

    /// Unpacks and decompresses an archive set back into named datasets, in
    /// original order.
    ///
    /// # Errors
    /// Returns [`SzError::CorruptStream`] for malformed archives and
    /// propagates decompression failures (including checksum mismatches from
    /// transit corruption).
    pub fn restore_archives(&self, archives: &[Vec<u8>]) -> Result<Vec<(String, Dataset<f32>)>, SzError> {
        let mut named_blobs: Vec<(String, CompressedBlob)> = Vec::new();
        for archive in archives {
            named_blobs.extend(open_archive(archive)?);
        }
        let (names, blobs): (Vec<String>, Vec<CompressedBlob>) = named_blobs.into_iter().unzip();
        let datasets = self.executor.decompress_all(&blobs)?;
        Ok(names.into_iter().zip(datasets).collect())
    }
}

/// Parses one archive into its named compressed blobs (without
/// decompressing — used by inspection tooling).
///
/// # Errors
/// Returns [`SzError::CorruptStream`] for malformed archives or manifests,
/// and surfaces per-blob checksum failures.
pub fn open_archive(archive: &[u8]) -> Result<Vec<(String, CompressedBlob)>, SzError> {
    let mut members = ungroup_blobs(archive).map_err(|e| SzError::CorruptStream(format!("archive: {e}")))?.into_iter();
    let manifest = members.next().ok_or_else(|| SzError::CorruptStream("archive has no members".into()))?;
    let names: Vec<String> =
        serde_json::from_slice(&manifest).map_err(|e| SzError::CorruptStream(format!("archive manifest: {e}")))?;
    if names.len() != members.len() {
        return Err(SzError::CorruptStream(format!(
            "manifest lists {} members but archive holds {}",
            names.len(),
            members.len()
        )));
    }
    names.into_iter().zip(members).map(|(name, bytes)| Ok((name, CompressedBlob::from_bytes(bytes)?))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocelot_sz::metrics;

    fn files(n: u64) -> Vec<(String, Dataset<f32>)> {
        (0..n)
            .map(|seed| {
                let data = Dataset::from_fn(vec![20, 20], move |i| {
                    ((i[0] as f32 + seed as f32) * 0.3).sin() + i[1] as f32 * 0.05
                });
                (format!("field_{seed:02}.f32"), data)
            })
            .collect()
    }

    #[test]
    fn archives_round_trip_with_names_and_bounds() {
        let session = TransferSession::new(4, LossyConfig::sz3(1e-3));
        let input = files(10);
        let set = session.build_archives(&input, 3).unwrap();
        assert_eq!(set.len(), 3);
        assert!(set.overall_ratio() > 1.0);
        let restored = session.restore_archives(set.archives()).unwrap();
        assert_eq!(restored.len(), 10);
        for ((name, orig), (rname, rec)) in input.iter().zip(&restored) {
            assert_eq!(name, rname);
            let q = metrics::compare(orig, rec).unwrap();
            assert!(q.within_bound(1e-3 * orig.value_range()));
        }
    }

    #[test]
    fn single_archive_works() {
        let session = TransferSession::new(2, LossyConfig::sz3(1e-2));
        let input = files(4);
        let set = session.build_archives(&input, 1).unwrap();
        assert_eq!(set.len(), 1);
        assert_eq!(session.restore_archives(set.archives()).unwrap().len(), 4);
    }

    #[test]
    fn corruption_in_transit_is_detected() {
        let session = TransferSession::new(2, LossyConfig::sz3(1e-3));
        let set = session.build_archives(&files(4), 2).unwrap();
        let mut archives = set.into_archives();
        // Flip a byte in the middle of the second archive's payload.
        let n = archives[1].len();
        archives[1][n / 2] ^= 0x10;
        assert!(session.restore_archives(&archives).is_err());
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn reserved_name_is_rejected() {
        let session = TransferSession::new(1, LossyConfig::sz3(1e-3));
        let bad = vec![("__manifest__".to_string(), Dataset::<f32>::constant(vec![4], 0.0).unwrap())];
        let _ = session.build_archives(&bad, 1);
    }

    #[test]
    fn more_groups_than_files_collapses() {
        let session = TransferSession::new(2, LossyConfig::sz3(1e-3));
        let set = session.build_archives(&files(2), 10).unwrap();
        assert_eq!(set.len(), 2);
    }
}
