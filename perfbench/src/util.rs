//! Seeded randomness, the run environment block, and process memory.

use std::fmt::Write as _;
use std::path::Path;

/// SplitMix64: small, seeded, and identical on every platform, so the same
/// seed always gives the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    /// An independent stream for `(seed, stream)`.
    pub fn stream(seed: u64, stream: u64) -> Rng {
        let mut base = Rng::new(seed);
        Rng::new(base.next_u64() ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf sampler over ranks `0..n`: rank `k` has weight `1 / (k+1)^s`.
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut total = 0.0;
        let cumulative = (0..n.max(1))
            .map(|k| {
                total += 1.0 / ((k + 1) as f64).powf(s);
                total
            })
            .collect();
        Zipf { cumulative }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let total = *self.cumulative.last().expect("at least one rank");
        let x = rng.unit() * total;
        self.cumulative
            .partition_point(|&c| c <= x)
            .min(self.cumulative.len() - 1)
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cores the process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// FNV-1a digest of the workspace sources the benchmark builds, so results
/// from a checkout without git history still name the code they measured.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for dir in ["crates", "shims", "perfbench/src"] {
        walk(Path::new(dir), &mut files);
    }
    files.push("Cargo.toml".into());
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// The `env` block printed with every result.
pub fn env_json(workload: &str, seed: u64, clients: usize, engine_threads: usize) -> String {
    let mut out = String::new();
    let esc = |s: String| s.replace('\\', "\\\\").replace('"', "\\\"");
    let _ = write!(
        out,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"available_parallelism\":{},\
         \"client_threads\":{clients},\"engine_threads\":{engine_threads},\
         \"commit\":\"{}\",\"source_digest\":\"{}\",\"rustc\":\"{}\"}}",
        cores(),
        // Only a checkout that is itself a git work tree has a commit.
        esc(Path::new(".git")
            .exists()
            .then(|| command_line("git", &["rev-parse", "HEAD"]))
            .flatten()
            .unwrap_or_else(|| "unknown".into())),
        source_digest(),
        esc(command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into())),
    );
    out
}
