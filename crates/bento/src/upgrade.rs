//! Online upgrade support (paper §4.8).
//!
//! Upgrading a Linux file system normally requires unmounting: every service
//! using the file system must be stopped, the module replaced, and the file
//! system remounted.  Bento instead keeps the framework (BentoFS) resident
//! and swaps the file-system implementation underneath it.  In-memory state
//! that must survive the swap — caches of on-disk structures, allocation
//! cursors, statistics, connections — is carried across in a
//! [`StateBundle`]: the old instance serializes what it wants to keep in
//! [`FileSystem::extract_state`](crate::fileops::FileSystem::extract_state)
//! and the new instance rebuilds itself from it in
//! [`FileSystem::restore_state`](crate::fileops::FileSystem::restore_state).
//!
//! The bundle is a string-keyed map of serialized values so that old and new
//! versions do not need identical Rust types — a new version can ignore keys
//! it no longer understands and supply defaults for keys that are missing.

use std::collections::BTreeMap;

use serde::de::DeserializeOwned;
use serde::Serialize;
use simkernel::error::{Errno, KernelError, KernelResult};

/// A typed, string-keyed bundle of state transferred across an online
/// upgrade.
///
/// # Example
///
/// ```
/// use bento::upgrade::StateBundle;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut bundle = StateBundle::new();
/// bundle.put("next_inode", &42u64)?;
/// bundle.put("dirty_inodes", &vec![3u64, 7, 9])?;
///
/// let next: u64 = bundle.get("next_inode")?;
/// assert_eq!(next, 42);
/// assert!(bundle.get::<u64>("missing").is_err());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StateBundle {
    entries: BTreeMap<String, String>,
}

impl StateBundle {
    /// Creates an empty bundle.
    pub fn new() -> Self {
        StateBundle::default()
    }

    /// Serializes `value` under `key`, replacing any previous value.
    ///
    /// # Errors
    ///
    /// Returns [`Errno::Inval`] if the value cannot be serialized.
    pub fn put<T: Serialize>(&mut self, key: &str, value: &T) -> KernelResult<()> {
        let encoded = serde_json::to_string(value).map_err(|_| {
            KernelError::with_context(Errno::Inval, "state bundle: serialization failed")
        })?;
        self.entries.insert(key.to_string(), encoded);
        Ok(())
    }

    /// Deserializes the value stored under `key`.
    ///
    /// # Errors
    ///
    /// Returns [`Errno::NoEnt`] if the key is absent and [`Errno::Inval`] if
    /// the stored value cannot be decoded as `T`.
    pub fn get<T: DeserializeOwned>(&self, key: &str) -> KernelResult<T> {
        let raw = self
            .entries
            .get(key)
            .ok_or_else(|| KernelError::with_context(Errno::NoEnt, "state bundle: missing key"))?;
        serde_json::from_str(raw).map_err(|_| {
            KernelError::with_context(Errno::Inval, "state bundle: deserialization failed")
        })
    }

    /// Like [`StateBundle::get`] but returns `None` for a missing key (still
    /// an error for an undecodable value).
    ///
    /// # Errors
    ///
    /// Returns [`Errno::Inval`] if the stored value cannot be decoded as `T`.
    pub fn get_opt<T: DeserializeOwned>(&self, key: &str) -> KernelResult<Option<T>> {
        match self.get(key) {
            Ok(v) => Ok(Some(v)),
            Err(e) if e.errno() == Errno::NoEnt => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Whether the bundle contains `key`.
    pub fn contains(&self, key: &str) -> bool {
        self.entries.contains_key(key)
    }

    /// Number of entries in the bundle.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the bundle is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The keys present in the bundle.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(String::as_str)
    }
}

/// Statistics about an upgrade performed by BentoFS.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpgradeReport {
    /// Generation number after the upgrade (starts at 0 for the initially
    /// mounted file system).
    pub generation: u64,
    /// Number of state-bundle entries transferred (0 for a sync-and-reinit
    /// fallback upgrade).
    pub transferred_entries: usize,
    /// Whether the state-transfer path was used (`extract_state` /
    /// `restore_state`), as opposed to the sync-and-reinit fallback.
    pub state_transfer: bool,
    /// How long applications were paused: from requesting the write lock
    /// to installing the new instance.  It covers `drain_ns` and
    /// `transfer_ns`, plus however long the caller held the
    /// [`UpgradeGate`](crate::bentofs::UpgradeGate) between the two.  The
    /// paper's §4.8 headline is that this is milliseconds, not an
    /// unmount/remount window.
    pub pause_ns: u64,
    /// Acquiring the write lock: waiting for the operations in flight to
    /// drain.
    pub drain_ns: u64,
    /// Moving the state: `extract_state` + `restore_state`, or `sync_fs` +
    /// `init` on the fallback path.
    pub transfer_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct CacheState {
        entries: Vec<(u64, String)>,
        hits: u64,
    }

    #[test]
    fn roundtrip_primitive_and_struct() {
        let mut b = StateBundle::new();
        b.put("counter", &7u32).unwrap();
        let cache = CacheState { entries: vec![(1, "root".into()), (9, "etc".into())], hits: 55 };
        b.put("cache", &cache).unwrap();
        assert_eq!(b.get::<u32>("counter").unwrap(), 7);
        assert_eq!(b.get::<CacheState>("cache").unwrap(), cache);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn missing_and_mistyped_keys() {
        let mut b = StateBundle::new();
        b.put("text", &"hello".to_string()).unwrap();
        assert_eq!(b.get::<u64>("absent").unwrap_err().errno(), Errno::NoEnt);
        assert_eq!(b.get::<u64>("text").unwrap_err().errno(), Errno::Inval);
        assert_eq!(b.get_opt::<String>("absent").unwrap(), None);
        assert_eq!(b.get_opt::<String>("text").unwrap().as_deref(), Some("hello"));
    }

    #[test]
    fn overwrite_replaces_value() {
        let mut b = StateBundle::new();
        b.put("k", &1u32).unwrap();
        b.put("k", &2u32).unwrap();
        assert_eq!(b.get::<u32>("k").unwrap(), 2);
        assert_eq!(b.len(), 1);
    }
}
