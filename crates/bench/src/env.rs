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
    /// Parses process arguments; `--help` prints usage to stdout and exits
    /// 0, a malformed flag prints it to stderr and exits 2.
    #[must_use]
    pub fn from_args() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Parses an explicit argument list, exiting as [`Env::from_args`] does
    /// on `--help` or a malformed flag.
    #[must_use]
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Self {
        match Self::try_parse(args) {
            Ok(Some(env)) => env,
            Ok(None) => {
                println!("{USAGE}");
                std::process::exit(0)
            }
            Err(msg) => {
                eprintln!("error: {msg}\n{USAGE}");
                std::process::exit(2)
            }
        }
    }

    /// As [`Env::parse`], without exiting: `Ok(None)` when `--help` or `-h`
    /// asks for usage.
    ///
    /// # Errors
    ///
    /// A missing or malformed value, `--detail 0`, or an unknown flag.
    pub fn try_parse<I: IntoIterator<Item = String>>(args: I) -> Result<Option<Self>, String> {
        let mut env = Env::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("missing value for {arg}"));
            match arg.as_str() {
                "--scale" => {
                    let v = value()?;
                    env.scale = Scale::parse(&v).ok_or_else(|| format!("unknown scale '{v}'"))?;
                }
                "--detail" => {
                    let v = value()?;
                    env.detail = if v.eq_ignore_ascii_case("full") {
                        Detail::Full
                    } else {
                        match v.parse() {
                            Ok(0) => return Err("--detail must be >= 1, got 0".to_string()),
                            Ok(n) => Detail::Sampled(n),
                            Err(_) => return Err(format!("bad detail '{v}'")),
                        }
                    };
                }
                "--telemetry" => {
                    env.telemetry = Some(PathBuf::from(value()?));
                    env.sink = TelemetrySink::recording();
                }
                "--help" | "-h" => return Ok(None),
                other => return Err(format!("unknown flag '{other}'")),
            }
        }
        Ok(Some(env))
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

const USAGE: &str =
    "usage: <experiment> [--scale paper|ci|smoke] [--detail N|full] [--telemetry <dir>]";

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

    #[test]
    fn malformed_flags_are_errors() {
        let err = |args: &[&str]| Env::try_parse(args.iter().map(ToString::to_string)).unwrap_err();
        assert_eq!(err(&["--detail", "0"]), "--detail must be >= 1, got 0");
        assert_eq!(err(&["--detail", "x"]), "bad detail 'x'");
        assert_eq!(err(&["--detail"]), "missing value for --detail");
        assert_eq!(err(&["--scale", "huge"]), "unknown scale 'huge'");
        assert_eq!(err(&["--bogus"]), "unknown flag '--bogus'");
    }

    #[test]
    fn help_asks_for_usage_not_an_error() {
        for flag in ["--help", "-h"] {
            let parsed = Env::try_parse(["--scale", "smoke", flag].map(String::from));
            assert!(matches!(parsed, Ok(None)), "{flag}: {parsed:?}");
        }
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
