//! File grouping for high transfer throughput (§VII-C, Fig 11).
//!
//! Many small compressed files transfer slowly (per-file handling costs —
//! Table II), so Ocelot concatenates compressed blobs into a few large
//! *group files*. Each group carries a binary header (count, offset and size
//! of every member) and the batch is described by a human-readable JSON
//! manifest (original filenames, grouping strategy) used on the destination
//! to decompress and restore names.

use serde::{Deserialize, Serialize};

const MAGIC: [u8; 4] = *b"OCGP";

/// Human-readable description of a grouped batch (the paper's "metadata
/// text file").
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroupManifest {
    /// Strategy note (`"groups:N"` for a plan of `N` groups).
    pub strategy: String,
    /// Original member filenames, one list per group, in group order.
    pub groups: Vec<Vec<String>>,
}

impl GroupManifest {
    /// Total number of member files across all groups.
    pub fn file_count(&self) -> usize {
        self.groups.iter().map(Vec::len).sum()
    }
}

/// Plans exactly `group_count` groups of near-equal file counts, preserving
/// order — the paper's default "group by world_size" strategy (cores that
/// compressed together finish together and write one group).
///
/// # Panics
/// Panics if `group_count == 0`.
pub fn plan_groups_by_count(n_files: usize, group_count: usize) -> Vec<Vec<usize>> {
    assert!(group_count > 0, "group count must be positive");
    if n_files == 0 {
        return Vec::new();
    }
    let group_count = group_count.min(n_files);
    let mut groups = Vec::with_capacity(group_count);
    let base = n_files / group_count;
    let extra = n_files % group_count;
    let mut next = 0usize;
    for g in 0..group_count {
        let len = base + usize::from(g < extra);
        groups.push((next..next + len).collect());
        next += len;
    }
    groups
}

/// Builds group files from named blobs according to a plan.
///
/// ```
/// use ocelot::grouping::{group_blobs, plan_groups_by_count, ungroup_blobs};
///
/// let blobs = vec![("a".to_string(), vec![1u8, 2]), ("b".to_string(), vec![3u8])];
/// let plan = plan_groups_by_count(blobs.len(), 1);
/// let (groups, manifest) = group_blobs(&blobs, &plan);
/// assert_eq!(manifest.groups[0], vec!["a", "b"]);
/// let members = ungroup_blobs(&groups[0]).unwrap();
/// assert_eq!(members, vec![vec![1u8, 2], vec![3u8]]);
/// ```
///
/// Returns the serialized group files and the manifest.
///
/// # Panics
/// Panics if the plan references out-of-range files, repeats a file, or
/// omits one.
pub fn group_blobs(blobs: &[(String, Vec<u8>)], plan: &[Vec<usize>]) -> (Vec<Vec<u8>>, GroupManifest) {
    let mut seen = vec![false; blobs.len()];
    for idx in plan.iter().flatten() {
        assert!(*idx < blobs.len(), "plan references file {idx} of {}", blobs.len());
        assert!(!seen[*idx], "plan repeats file {idx}");
        seen[*idx] = true;
    }
    assert!(seen.iter().all(|&s| s), "plan omits files");

    let mut group_files = Vec::with_capacity(plan.len());
    let mut names = Vec::with_capacity(plan.len());
    for group in plan {
        // Header: magic, count, then (offset, size) per member. Offsets are
        // relative to the start of the body.
        let mut header = Vec::with_capacity(8 + group.len() * 16);
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&(group.len() as u32).to_le_bytes());
        let mut body = Vec::new();
        for &idx in group {
            header.extend_from_slice(&(body.len() as u64).to_le_bytes());
            header.extend_from_slice(&(blobs[idx].1.len() as u64).to_le_bytes());
            body.extend_from_slice(&blobs[idx].1);
        }
        let mut file = header;
        file.extend_from_slice(&body);
        group_files.push(file);
        names.push(group.iter().map(|&i| blobs[i].0.clone()).collect());
    }
    let manifest = GroupManifest { strategy: format!("groups:{}", plan.len()), groups: names };
    (group_files, manifest)
}

/// Splits a group file back into its member blobs.
///
/// # Errors
/// Returns a message describing the framing violation.
pub fn ungroup_blobs(group_file: &[u8]) -> Result<Vec<Vec<u8>>, String> {
    if group_file.len() < 8 || group_file[..4] != MAGIC {
        return Err("missing OCGP magic".into());
    }
    let count = u32::from_le_bytes(group_file[4..8].try_into().expect("4 bytes")) as usize;
    let header_len = 8 + count * 16;
    if group_file.len() < header_len {
        return Err(format!("truncated header: {count} members"));
    }
    let body = &group_file[header_len..];
    let mut out = Vec::with_capacity(count);
    for m in 0..count {
        let at = 8 + m * 16;
        let offset = u64::from_le_bytes(group_file[at..at + 8].try_into().expect("8 bytes")) as usize;
        let size = u64::from_le_bytes(group_file[at + 8..at + 16].try_into().expect("8 bytes")) as usize;
        let end = offset.checked_add(size).ok_or("offset overflow")?;
        if end > body.len() {
            return Err(format!("member {m} spans past the body ({end} > {})", body.len()));
        }
        out.push(body[offset..end].to_vec());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn named(blobs: &[&[u8]]) -> Vec<(String, Vec<u8>)> {
        blobs.iter().enumerate().map(|(i, b)| (format!("file{i}.sz"), b.to_vec())).collect()
    }

    #[test]
    fn group_and_ungroup_round_trip() {
        let blobs = named(&[b"alpha", b"", b"gamma-longer-content", b"d"]);
        let plan = vec![vec![0, 1], vec![2, 3]];
        let (groups, manifest) = group_blobs(&blobs, &plan);
        assert_eq!(groups.len(), 2);
        assert_eq!(manifest.file_count(), 4);
        assert_eq!(manifest.groups[0], vec!["file0.sz", "file1.sz"]);
        let g0 = ungroup_blobs(&groups[0]).unwrap();
        assert_eq!(g0, vec![b"alpha".to_vec(), b"".to_vec()]);
        let g1 = ungroup_blobs(&groups[1]).unwrap();
        assert_eq!(g1[0], b"gamma-longer-content".to_vec());
    }

    #[test]
    fn plan_by_count_balances() {
        let plan = plan_groups_by_count(10, 3);
        assert_eq!(plan.len(), 3);
        let lens: Vec<usize> = plan.iter().map(Vec::len).collect();
        assert_eq!(lens, vec![4, 3, 3]);
        let all: Vec<usize> = plan.into_iter().flatten().collect();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn plan_by_count_caps_at_file_count() {
        let plan = plan_groups_by_count(3, 8);
        assert_eq!(plan.len(), 3);
    }

    #[test]
    fn corrupt_group_is_rejected() {
        let blobs = named(&[b"hello", b"world"]);
        let (groups, _) = group_blobs(&blobs, &[vec![0, 1]]);
        assert!(ungroup_blobs(&groups[0][..10]).is_err());
        assert!(ungroup_blobs(b"XXXX").is_err());
        // Size pointing past the body.
        let mut bad = groups[0].clone();
        bad[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(ungroup_blobs(&bad).is_err());
    }

    #[test]
    #[should_panic(expected = "plan omits files")]
    fn incomplete_plan_panics() {
        let blobs = named(&[b"a", b"b"]);
        group_blobs(&blobs, &[vec![0]]);
    }

    #[test]
    fn manifest_serializes_to_json() {
        let blobs = named(&[b"a", b"b", b"c"]);
        let (_, manifest) = group_blobs(&blobs, &[vec![0, 1, 2]]);
        let json = serde_json::to_string_pretty(&manifest).unwrap();
        let back: GroupManifest = serde_json::from_str(&json).unwrap();
        assert_eq!(manifest, back);
        assert!(json.contains("file2.sz"));
    }
}
