//! Fingerprints the workspace sources for the run cache (see
//! `src/fingerprint.rs`) and exports the hash as
//! `STABL_SOURCE_FINGERPRINT`.

use std::path::Path;

#[path = "src/fingerprint.rs"]
mod fingerprint;

fn main() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let dirs = fingerprint::source_dirs(&root).expect("list the source directories");
    for dir in &dirs {
        println!("cargo:rerun-if-changed={}", dir.display());
    }
    println!(
        "cargo:rerun-if-changed={}",
        root.join("Cargo.lock").display()
    );
    let hash = fingerprint::source_fingerprint(&root).expect("fingerprint the sources");
    println!("cargo:rustc-env=STABL_SOURCE_FINGERPRINT={hash}");
}
