//! Stamps the binary with what its results need from build time: the
//! compiler version (part of the host fingerprint) and the git revision
//! (when the sources are a git checkout).

use std::path::Path;
use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_string(), |v| v.trim().to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");

    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    println!("cargo:rustc-env=PERFBENCH_GIT={}", git_revision(&root));
}

/// The checked-out commit, or "none" outside a git checkout.
fn git_revision(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".to_string();
    };
    println!("cargo:rerun-if-changed=../.git/HEAD");
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.chars().take(12).collect();
    };
    println!("cargo:rerun-if-changed=../.git/{reference}");
    let loose = std::fs::read_to_string(git.join(reference)).ok();
    let packed = || {
        std::fs::read_to_string(git.join("packed-refs"))
            .ok()?
            .lines()
            .find(|l| l.ends_with(reference))
            .map(|l| l.split(' ').next().unwrap_or_default().to_string())
    };
    loose.or_else(packed).map_or("unknown".to_string(), |r| {
        r.trim().chars().take(12).collect()
    })
}
