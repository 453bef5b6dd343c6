//! Bakes the build fingerprint (rustc version, build profile, git revision)
//! into the binary, so every run can print the toolchain it measured.
//!
//! The revision is read from the repository's `.git` files rather than by
//! running `git`, which would search parent directories for some other
//! repository when this source tree is not a git checkout. The script
//! reruns when `HEAD` or the branch it names moves, so a binary never
//! prints a stale revision.

use std::path::Path;
use std::process::Command;

fn first_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok().filter(|o| o.status.success())?;
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines().next().map(str::to_owned)
}

/// Watches `path` for the rerun check (only when it exists: cargo reruns a
/// script on every build while a watched path is missing).
fn watch(path: &Path) {
    if path.exists() {
        println!("cargo:rerun-if-changed={}", path.display());
    }
}

/// The commit `HEAD` names in the git directory `git`, or `None`.
fn head_rev(git: &Path) -> Option<String> {
    let head_file = git.join("HEAD");
    watch(&head_file);
    let head = std::fs::read_to_string(&head_file).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    let loose = git.join(reference);
    watch(&loose);
    watch(&git.join("packed-refs"));
    if let Ok(rev) = std::fs::read_to_string(&loose) {
        return Some(rev.trim().to_owned());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (rev, name) = line.split_once(' ')?;
        (name == reference).then(|| rev.to_owned())
    })
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = first_line(Command::new(rustc).arg("--version")).unwrap_or("unknown".into());
    let manifest = std::env::var("CARGO_MANIFEST_DIR").unwrap_or(".".into());
    let rev = head_rev(&Path::new(&manifest).join("../.git"))
        .map(|r| r.chars().take(12).collect::<String>())
        .unwrap_or_else(|| "unknown".into());
    let profile = std::env::var("PROFILE").unwrap_or("unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_GIT_REV={rev}");
    println!("cargo:rustc-env=PERFBENCH_PROFILE={profile}");
    println!("cargo:rerun-if-changed=build.rs");
}
