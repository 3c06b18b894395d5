//! The source fingerprint the run cache is keyed on: one SHA-256 over
//! every file under `crates/*/src` and `vendor/*/src` plus `Cargo.lock`.
//!
//! `build.rs` computes it at build time (and tells Cargo to rerun when
//! any of those trees changes), so a cached cell can only be replayed
//! by a binary built from byte-identical sources, committed or not.
//! `vendor/` is covered because the vendored `serde_json` writes the
//! cached JSON.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use stabl_types::Sha256;

/// The fingerprinted source directories under `root`: every
/// `crates/*/src` and `vendor/*/src`, sorted.
pub fn source_dirs(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut dirs = Vec::new();
    for parent in ["crates", "vendor"] {
        for entry in fs::read_dir(root.join(parent))? {
            let src = entry?.path().join("src");
            if src.is_dir() {
                dirs.push(src);
            }
        }
    }
    dirs.sort();
    Ok(dirs)
}

/// SHA-256 over [`source_dirs`] and `Cargo.lock`: each file's
/// `/`-separated path relative to `root`, its byte length and its
/// bytes, in sorted path order.
pub fn source_fingerprint(root: &Path) -> io::Result<String> {
    let mut files = vec![root.join("Cargo.lock")];
    for dir in source_dirs(root)? {
        collect_files(&dir, &mut files)?;
    }
    let mut named: Vec<(String, PathBuf)> = files
        .into_iter()
        .map(|path| {
            let rel = path.strip_prefix(root).unwrap_or(&path);
            (rel.to_string_lossy().replace('\\', "/"), path)
        })
        .collect();
    named.sort();
    let mut hasher = Sha256::new();
    for (name, path) in named {
        let bytes = fs::read(&path)?;
        hasher.update(name.as_bytes());
        hasher.update(b"\n");
        hasher.update(&(bytes.len() as u64).to_le_bytes());
        hasher.update(&bytes);
    }
    Ok(hasher.finalize().to_string())
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_files(&path, out)?;
        } else {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
    }

    /// A copy of a small slice of the workspace, removed on drop.
    struct Tree(PathBuf);

    impl Drop for Tree {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn copy_dir(from: &Path, to: &Path) {
        fs::create_dir_all(to).expect("create copy dir");
        for entry in fs::read_dir(from).expect("read source dir") {
            let path = entry.expect("dir entry").path();
            let target = to.join(path.file_name().expect("file name"));
            if path.is_dir() {
                copy_dir(&path, &target);
            } else {
                fs::copy(&path, &target).expect("copy file");
            }
        }
    }

    fn small_tree() -> Tree {
        let dir =
            std::env::temp_dir().join(format!("stabl-fingerprint-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let root = repo_root();
        for rel in ["crates/aptos/src", "vendor/serde_json/src"] {
            copy_dir(&root.join(rel), &dir.join(rel));
        }
        fs::copy(root.join("Cargo.lock"), dir.join("Cargo.lock")).expect("copy Cargo.lock");
        Tree(dir)
    }

    #[test]
    fn editing_a_chain_constant_changes_the_fingerprint_and_reverting_restores_it() {
        let tree = small_tree();
        let fingerprint = || source_fingerprint(&tree.0).expect("fingerprint");
        let before = fingerprint();

        let config = tree.0.join("crates/aptos/src/config.rs");
        let original = fs::read_to_string(&config).expect("read config");
        let edited = original.replacen("max_block_txs: 300", "max_block_txs: 301", 1);
        assert_ne!(
            edited, original,
            "the constant is where the test expects it"
        );
        fs::write(&config, &edited).expect("edit config");
        assert_ne!(fingerprint(), before);
        fs::write(&config, &original).expect("restore config");
        assert_eq!(fingerprint(), before);

        // Files outside `src` (tests, benches) cannot change a result.
        let tests = tree.0.join("crates/aptos/tests");
        fs::create_dir_all(&tests).expect("create tests dir");
        fs::write(tests.join("extra.rs"), "#[test]\nfn t() {}\n").expect("write test");
        assert_eq!(fingerprint(), before);
    }

    #[test]
    fn the_built_fingerprint_matches_the_sources() {
        assert_eq!(
            crate::engine::SOURCE_FINGERPRINT,
            source_fingerprint(&repo_root()).expect("fingerprint the workspace")
        );
    }
}
