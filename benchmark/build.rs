//! Records the compiler version and, when built inside a git checkout, the
//! commit, for the host record printed with every result. Git is pointed at
//! the repository root's own `.git`, so nothing outside the checkout is
//! read.

use std::path::Path;
use std::process::Command;

/// Trimmed standard output of a successful command.
fn output(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    out.status.success().then(|| text.trim().to_string())
}

fn main() {
    let manifest = std::env::var("CARGO_MANIFEST_DIR").unwrap_or_default();
    let git_dir = Path::new(&manifest).join("..").join(".git");
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = output(Command::new(rustc).arg("-V")).unwrap_or_else(|| "unknown".into());
    let commit = output(
        Command::new("git")
            .arg("--git-dir")
            .arg(&git_dir)
            .args(["rev-parse", "HEAD"]),
    )
    .unwrap_or_else(|| "unknown (not a git checkout)".into());
    println!("cargo:rustc-env=BENCH_RUSTC_VERSION={version}");
    println!("cargo:rustc-env=BENCH_GIT_COMMIT={commit}");
    println!("cargo:rerun-if-changed=build.rs");
    // Rebuild when HEAD or any branch moves, loose or packed. Only existing
    // paths are named: a missing one would rerun the script on every build.
    for name in ["HEAD", "packed-refs", "refs"] {
        let path = git_dir.join(name);
        if path.exists() {
            println!("cargo:rerun-if-changed={}", path.display());
        }
    }
}
