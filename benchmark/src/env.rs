//! Where things live on disk, and what the harness leaves there.
//!
//! Everything the benchmark writes goes under the cargo build directory
//! (`CARGO_TARGET_DIR`, else `benchmark/target`): the `dod` binary it
//! builds, span files, and per-run scratch directories that are removed
//! when the run ends, however it ends.

use std::path::{Path, PathBuf};
use std::process::Command;

pub type Error = Box<dyn std::error::Error>;

/// The benchmark package's directory, as it was when this binary was
/// compiled — in the checkout it runs in, since every checkout builds
/// its own.
const MANIFEST_DIR: &str = env!("CARGO_MANIFEST_DIR");

pub fn build_dir() -> Result<PathBuf, Error> {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| Path::new(MANIFEST_DIR).join("target"), PathBuf::from);
    std::fs::create_dir_all(&dir)?;
    // The `dod serve` child gets paths on its command line; make them
    // independent of anybody's working directory.
    Ok(dir.canonicalize()?)
}

/// Builds `crates/dod-cli` into the build directory and returns the
/// path of the `dod` binary. A no-op after the first run in a checkout.
pub fn build_dod(build_dir: &Path) -> Result<PathBuf, Error> {
    let manifest = Path::new(MANIFEST_DIR).join("../crates/dod-cli/Cargo.toml");
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--bin", "dod", "--manifest-path"])
        .arg(&manifest)
        .arg("--target-dir")
        .arg(build_dir)
        // Cargo's progress goes to stderr; stdout stays the result line's.
        .stdout(std::process::Stdio::null())
        .status()?;
    if !status.success() {
        return Err(format!("building {} failed: {status}", manifest.display()).into());
    }
    let bin = build_dir.join("release/dod");
    if !bin.is_file() {
        return Err(format!("{} was not built", bin.display()).into());
    }
    Ok(bin)
}

/// A per-run directory for the corpus file, removed on drop — so also
/// when a check fails or the run panics.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(build_dir: &Path, workload: &str, seed: u64) -> Result<Self, Error> {
        let dir = build_dir.join(format!(
            "dod-benchmark-tmp/{workload}-{seed}-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    pub fn path(&self, file: &str) -> PathBuf {
        self.0.join(file)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Peak resident set (`VmHWM`) of a live process, in MB.
pub fn peak_rss_mb(pid: u32) -> Result<f64, Error> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .ok_or("no VmHWM line in /proc status")?
        .trim()
        .parse()?;
    Ok(kb / 1024.0)
}

pub fn threads_note() {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    eprintln!("available_parallelism = {cpus}; program threads: 2 host threads / 2 serve workers");
}
