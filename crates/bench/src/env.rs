//! Experiment environment: CLI flags shared by every binary.

use std::path::PathBuf;

use tahoe::telemetry::TelemetrySink;
use tahoe_datasets::Scale;
use tahoe_gpu_sim::kernel::Detail;

/// Parsed experiment flags.
#[derive(Clone, Debug)]
pub struct Env {
    /// Dataset/forest scale (`--scale paper|ci|smoke`, default `ci`).
    pub scale: Scale,
    /// Blocks simulated in detail per kernel (`--detail N|full`, default 32).
    pub detail: Detail,
    /// Directory the five telemetry views are written to
    /// (`--telemetry <dir>`); `None` = telemetry off.
    pub telemetry: Option<PathBuf>,
    /// Telemetry sink for the run: recording iff `--telemetry` was given,
    /// otherwise disabled (zero overhead).
    pub sink: TelemetrySink,
}

impl Default for Env {
    fn default() -> Self {
        Self {
            scale: Scale::Ci,
            detail: Detail::Sampled(32),
            telemetry: None,
            sink: TelemetrySink::Disabled,
        }
    }
}

impl Env {
    /// Parses process arguments; unknown flags abort with usage.
    ///
    /// # Panics
    ///
    /// Panics (with usage) on malformed flags.
    #[must_use]
    pub fn from_args() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Parses an explicit argument list (testable).
    ///
    /// # Panics
    ///
    /// Panics (with usage) on malformed flags.
    #[must_use]
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut env = Env::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--scale" => {
                    let v = it.next().unwrap_or_else(|| usage("missing value for --scale"));
                    env.scale = Scale::parse(&v)
                        .unwrap_or_else(|| usage(&format!("unknown scale '{v}'")));
                }
                "--detail" => {
                    let v = it.next().unwrap_or_else(|| usage("missing value for --detail"));
                    env.detail = if v.eq_ignore_ascii_case("full") {
                        Detail::Full
                    } else {
                        let n: usize = v
                            .parse()
                            .unwrap_or_else(|_| usage(&format!("bad detail '{v}'")));
                        Detail::Sampled(n.max(1))
                    };
                }
                "--telemetry" => {
                    let v = it.next().unwrap_or_else(|| usage("missing value for --telemetry"));
                    env.telemetry = Some(PathBuf::from(v));
                    env.sink = TelemetrySink::recording();
                }
                "--help" | "-h" => usage("usage"),
                other => usage(&format!("unknown flag '{other}'")),
            }
        }
        env
    }

    /// Writes the five telemetry views into the `--telemetry` dir. Nothing
    /// else is written, and nothing at all without the flag.
    ///
    /// # Panics
    ///
    /// Panics when the views cannot be written.
    pub fn export_telemetry(&self) {
        if let Some(dir) = &self.telemetry {
            self.sink
                .write_views(dir)
                .unwrap_or_else(|e| panic!("cannot write telemetry to {}: {e}", dir.display()));
            eprintln!("wrote telemetry views to {}", dir.display());
        }
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!(
        "usage: <experiment> [--scale paper|ci|smoke] [--detail N|full] \
         [--telemetry <dir>]"
    );
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tahoe::telemetry::VIEW_FILES;

    fn parse(args: &[&str]) -> Env {
        Env::parse(args.iter().map(ToString::to_string))
    }

    #[test]
    fn defaults() {
        let e = parse(&[]);
        assert_eq!(e.scale, Scale::Ci);
        assert_eq!(e.detail, Detail::Sampled(32));
        assert!(e.telemetry.is_none());
        assert!(!e.sink.is_enabled());
    }

    #[test]
    fn scale_and_detail_flags() {
        let e = parse(&["--scale", "smoke", "--detail", "8"]);
        assert_eq!(e.scale, Scale::Smoke);
        assert_eq!(e.detail, Detail::Sampled(8));
        let e = parse(&["--detail", "full"]);
        assert_eq!(e.detail, Detail::Full);
    }

    /// Files in `dir`, sorted.
    fn files(dir: &std::path::Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .map(|entries| {
                entries
                    .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
                    .collect()
            })
            .unwrap_or_default();
        names.sort();
        names
    }

    #[test]
    fn only_the_telemetry_dir_receives_the_views() {
        let root = std::env::temp_dir().join(format!("tahoe_env_{}", std::process::id()));
        let results = root.join("results");
        let views = root.join("views");
        std::fs::create_dir_all(&results).unwrap();
        std::env::set_var("TAHOE_RESULTS_DIR", &results);

        // A recording run without `--telemetry` writes nothing anywhere.
        let sink = TelemetrySink::recording();
        sink.add(tahoe::telemetry::Counter::KernelLaunches, 1);
        Env { sink, ..Env::default() }.export_telemetry();
        assert!(files(&results).is_empty(), "{:?}", files(&results));

        // `--telemetry <dir>` turns recording on and writes exactly the five
        // views there, still nothing into the results dir.
        let env = parse(&["--telemetry", views.to_str().unwrap()]);
        assert!(env.sink.is_enabled());
        env.export_telemetry();
        let mut expected: Vec<String> = VIEW_FILES.iter().map(ToString::to_string).collect();
        expected.sort();
        assert_eq!(files(&views), expected);
        assert!(files(&results).is_empty(), "{:?}", files(&results));
        std::fs::remove_dir_all(&root).ok();
    }
}
