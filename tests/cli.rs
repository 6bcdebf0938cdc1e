//! End-to-end tests of the `tahoe-cli` binary.

use std::path::PathBuf;
use std::process::{Command, Stdio};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tahoe-cli"))
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("tahoe_cli_tests");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

#[test]
fn train_inspect_infer_roundtrip() {
    let model = temp_path("roundtrip.json");
    let preds = temp_path("roundtrip_preds.csv");
    let out = cli()
        .args(["train", "--data", "letter", "--scale", "smoke"])
        .args(["--model", model.to_str().unwrap()])
        .output()
        .expect("run train");
    assert!(out.status.success(), "train failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("trained"));

    let out = cli()
        .args(["inspect", "--model", model.to_str().unwrap()])
        .output()
        .expect("run inspect");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("trees:"), "inspect output: {text}");
    assert!(text.contains("RandomForest"), "letter is an RF dataset: {text}");

    let out = cli()
        .args(["infer", "--data", "letter", "--scale", "smoke", "--batch", "200"])
        .args(["--model", model.to_str().unwrap()])
        .args(["--out", preds.to_str().unwrap()])
        .output()
        .expect("run infer");
    assert!(out.status.success(), "infer failed: {}", String::from_utf8_lossy(&out.stderr));
    let written = std::fs::read_to_string(&preds).expect("predictions written");
    assert_eq!(written.lines().count(), 200);
    for line in written.lines() {
        let v: f32 = line.parse().expect("numeric prediction");
        assert!(v.is_finite());
    }
    std::fs::remove_file(&model).ok();
    std::fs::remove_file(&preds).ok();
}

#[test]
fn csv_training_with_pruning() {
    let data = temp_path("train_data.csv");
    let mut rows = String::new();
    for i in 0..120 {
        let x = (i % 12) as f32 / 3.0 - 2.0;
        let y = u8::from(x > 0.0);
        rows.push_str(&format!("{x},{:.1},{y}\n", x * 0.5));
    }
    std::fs::write(&data, rows).unwrap();
    let model = temp_path("csv_model.json");
    let out = cli()
        .args(["train", "--data", data.to_str().unwrap()])
        .args(["--kind", "gbdt", "--trees", "8", "--depth", "3", "--prune", "0.001"])
        .args(["--model", model.to_str().unwrap()])
        .output()
        .expect("run train");
    assert!(out.status.success(), "train failed: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("pruned"), "pruning should be reported: {text}");
    std::fs::remove_file(&data).ok();
    std::fs::remove_file(&model).ok();
}

#[test]
fn unknown_flags_and_missing_data_fail_cleanly() {
    let out = cli().args(["train", "--bogus", "1"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));

    let out = cli()
        .args(["infer", "--model", "/nonexistent.json", "--data", "nosuchdataset"])
        .output()
        .unwrap();
    assert!(!out.status.success());

    let out = cli().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());

    let no_panic = |out: &std::process::Output, what: &str| {
        let stderr = String::from_utf8_lossy(&out.stderr).to_string();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(!out.status.success(), "{what} must fail");
        assert!(
            !stderr.contains("panicked at") && !stdout.contains("panicked at"),
            "{what} panicked: {stderr}"
        );
        stderr
    };

    // `--trees 0` is a usage error (exit 2), like `--prune nan`; the usage
    // text follows the one-line error.
    let model = temp_path("zero_trees_model.json");
    let out = cli()
        .args(["train", "--data", "letter", "--scale", "smoke"])
        .args(["--trees", "0", "--model", model.to_str().unwrap()])
        .output()
        .unwrap();
    let stderr = no_panic(&out, "train --trees 0");
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert_eq!(
        stderr.lines().next(),
        Some("error: --trees must be >= 1, got 0")
    );

    // Zero counts are usage errors too, caught before any data loads or any
    // telemetry dir is read.
    for (command, flag) in [
        ("infer", "--batch"),
        ("serve", "--requests"),
        ("serve", "--gpus"),
        ("profile", "--top"),
        ("explain", "--top"),
    ] {
        let out = cli().args([command, flag, "0"]).output().unwrap();
        let what = format!("{command} {flag} 0");
        let stderr = no_panic(&out, &what);
        assert_eq!(out.status.code(), Some(2), "{what}: {stderr}");
        let want = format!("error: {flag} must be >= 1, got 0");
        assert_eq!(stderr.lines().next(), Some(want.as_str()), "{what}");
    }

    // There is one node encoding, so `--node-encoding` is an unknown flag
    // on every command that once took it.
    for command in ["infer", "bench", "serve"] {
        let out = cli()
            .args([command, "--node-encoding", "classic"])
            .output()
            .unwrap();
        let what = format!("{command} --node-encoding classic");
        let stderr = no_panic(&out, &what);
        assert_eq!(out.status.code(), Some(2), "{what}: {stderr}");
        assert_eq!(
            stderr.lines().next(),
            Some("error: unknown flag '--node-encoding'"),
            "{what}"
        );
    }

    // A CSV too small for the 7-in-10 split to leave inference rows trains
    // fine, but every command that infers fails with one line naming its
    // row count.
    for n_rows in [1usize, 5] {
        let data = temp_path(&format!("tiny_{n_rows}.csv"));
        let rows: String = (0..n_rows)
            .map(|i| format!("{i}.5,0.25,{}\n", i % 2))
            .collect();
        std::fs::write(&data, rows).unwrap();
        let model = temp_path(&format!("tiny_{n_rows}_model.json"));
        let out = cli()
            .args(["train", "--data", data.to_str().unwrap(), "--trees", "2"])
            .args(["--model", model.to_str().unwrap()])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "train: {stderr}");
        for command in ["infer", "bench", "serve"] {
            let out = cli()
                .args([command, "--data", data.to_str().unwrap()])
                .args(["--model", model.to_str().unwrap()])
                .output()
                .unwrap();
            let what = format!("{command} on {n_rows} rows");
            let stderr = no_panic(&out, &what);
            assert_eq!(stderr.lines().count(), 1, "{what}: {stderr}");
            assert!(
                stderr.starts_with("error: the data has ")
                    && stderr.contains(&format!(" {n_rows} row")),
                "{what}: {stderr}"
            );
        }
        std::fs::remove_file(&data).ok();
        std::fs::remove_file(&model).ok();
    }
}

/// A fresh, empty directory under the temp dir.
fn temp_dir(name: &str) -> PathBuf {
    let dir = temp_path(name);
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The sorted file names in `dir`.
fn dir_files(dir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("telemetry dir written")
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

const VIEW_FILES: [&str; 5] = [
    "decisions.json",
    "metrics.json",
    "profiles.json",
    "timeseries.json",
    "trace.json",
];

#[test]
fn profile_export_and_pretty_print() {
    let model = temp_path("profile_model.json");
    let telemetry = temp_dir("profile_telemetry");
    let out = cli()
        .args(["train", "--data", "letter", "--scale", "smoke"])
        .args(["--model", model.to_str().unwrap()])
        .output()
        .expect("run train");
    assert!(out.status.success(), "train failed: {}", String::from_utf8_lossy(&out.stderr));

    let out = cli()
        .args(["bench", "--data", "letter", "--scale", "smoke"])
        .args(["--model", model.to_str().unwrap()])
        .args(["--telemetry", telemetry.to_str().unwrap()])
        .output()
        .expect("run bench");
    assert!(out.status.success(), "bench failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("wrote telemetry views"));
    assert_eq!(dir_files(&telemetry), VIEW_FILES);
    let written = std::fs::read_to_string(telemetry.join("profiles.json")).expect("profiles");
    assert!(written.contains("\"kernels\""), "export payload: {written}");

    let out = cli()
        .args(["profile", "--telemetry", telemetry.to_str().unwrap(), "--top", "3"])
        .output()
        .expect("run profile");
    assert!(out.status.success(), "profile failed: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    // The counter line comes from metrics.json.
    assert!(
        text.contains("counters: global-load efficiency "),
        "counter line: {text}"
    );
    assert!(text.contains("kernel launches:"), "report header: {text}");
    assert!(text.contains("occupancy"), "per-kernel lines: {text}");
    // The drift lines come from decisions.json: bench forces each feasible
    // strategy, then lets the model pick, so every launch has a decision.
    assert!(text.contains("model drift"), "drift summary: {text}");
    assert!(!text.contains("model drift: no records"), "drift summary: {text}");

    // The subcommand fails cleanly without a telemetry dir to read.
    let out = cli().args(["profile"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--telemetry"));

    std::fs::remove_file(&model).ok();
    std::fs::remove_dir_all(&telemetry).ok();
}

#[test]
fn serve_decisions_export_and_explain() {
    let model = temp_path("decisions_model.json");
    let telemetry = temp_dir("serve_telemetry");
    let out = cli()
        .args(["train", "--data", "letter", "--scale", "smoke"])
        .args(["--model", model.to_str().unwrap()])
        .output()
        .expect("run train");
    assert!(out.status.success(), "train failed: {}", String::from_utf8_lossy(&out.stderr));

    // serve accepts --telemetry; the dir holds exactly
    // the five views, and the decisions view carries both decision audits
    // and per-request critical-path records.
    let out = cli()
        .args(["serve", "--data", "letter", "--scale", "smoke"])
        .args(["--model", model.to_str().unwrap()])
        .args(["--devices", "k80,p100", "--requests", "100", "--interarrival", "50"])
        .args(["--telemetry", telemetry.to_str().unwrap()])
        .output()
        .expect("run serve");
    assert!(out.status.success(), "serve failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("wrote telemetry views"));
    assert_eq!(dir_files(&telemetry), VIEW_FILES);
    let written = std::fs::read_to_string(telemetry.join("decisions.json")).expect("decisions");
    assert!(written.contains("\"decisions\""), "export payload: {written}");
    assert!(written.contains("\"requests\""), "export payload: {written}");

    let out = cli()
        .args(["explain", "--telemetry", telemetry.to_str().unwrap(), "--top", "2"])
        .output()
        .expect("run explain");
    assert!(out.status.success(), "explain failed: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("tuning decisions:"), "report header: {text}");
    assert!(text.contains("chose '"), "chosen plan line: {text}");
    assert!(text.contains("<- chosen"), "ranked ladder marks the winner: {text}");
    assert!(text.contains("request paths: 100 requests"), "path summary: {text}");
    assert!(text.contains("worst request"), "worst-request attribution: {text}");

    // profile reads the same dir, with the serving histogram filled.
    let out = cli()
        .args(["profile", "--telemetry", telemetry.to_str().unwrap()])
        .output()
        .expect("run profile");
    assert!(out.status.success(), "profile failed: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("serving latencies: 100 samples"), "histogram: {text}");

    // A calibrated serve of 1000 requests at a 50 ns gap fills enough
    // batches for the calibrator to refit, so explain prints the mean drift
    // of both calibration generations.
    let calibrated = temp_dir("calibrated_serve_telemetry");
    let out = cli()
        .args(["serve", "--data", "letter", "--scale", "smoke"])
        .args(["--model", model.to_str().unwrap()])
        .args(["--requests", "1000", "--interarrival", "50", "--calibrate"])
        .args(["--telemetry", calibrated.to_str().unwrap()])
        .output()
        .expect("run calibrated serve");
    assert!(out.status.success(), "serve failed: {}", String::from_utf8_lossy(&out.stderr));
    let out = cli()
        .args(["explain", "--telemetry", calibrated.to_str().unwrap()])
        .output()
        .expect("run explain");
    assert!(out.status.success(), "explain failed: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("calibration: mean |drift| "), "calibration line: {text}");

    // The subcommand fails cleanly without a telemetry dir to read.
    let out = cli().args(["explain"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--telemetry"));

    std::fs::remove_file(&model).ok();
    std::fs::remove_dir_all(&telemetry).ok();
    std::fs::remove_dir_all(&calibrated).ok();
}

#[test]
fn retired_telemetry_flags_are_usage_errors() {
    for flag in ["--trace", "--metrics", "--profile", "--timeseries", "--decisions"] {
        for command in ["infer", "bench", "serve", "profile", "explain"] {
            let out = cli().args([command, flag, "x.json"]).output().unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{command} {flag}: {stderr}");
            assert!(!stderr.contains("panicked at"), "{command} {flag}: {stderr}");
            assert_eq!(
                stderr.lines().next(),
                Some(format!("error: unknown flag '{flag}'").as_str()),
                "{command} {flag}"
            );
        }
    }
}

#[test]
fn forced_infeasible_strategy_is_rejected() {
    let model = temp_path("infeasible.json");
    // Smoke-scale higgs at depth 10 with many trees stays small, so force a
    // strategy that needs shared memory on a dataset/model that fits —
    // instead validate the auto path and a feasible forced strategy.
    let out = cli()
        .args(["train", "--data", "ijcnn1", "--scale", "smoke"])
        .args(["--model", model.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = cli()
        .args(["infer", "--data", "ijcnn1", "--scale", "smoke", "--batch", "100"])
        .args(["--model", model.to_str().unwrap()])
        .args(["--strategy", "direct"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("direct"));
    std::fs::remove_file(&model).ok();
}

/// A one-tree, 16-attribute forest (letter's width) whose root tests
/// `attribute` and routes left to node `left` of a 3-node arena.
fn hand_written_model(attribute: u32, left: u32) -> String {
    format!(
        r#"{{"trees":[{{"nodes":[{{"Decision":{{"attribute":{attribute},"threshold":5.0,"default_left":false,"left":{left},"right":2,"left_prob":0.5}}}},{{"Leaf":{{"value":0.25}}}},{{"Leaf":{{"value":0.75}}}}]}}],"n_attributes":16,"kind":"RandomForest","task":"BinaryClassification","base_score":0.0}}"#
    )
}

#[test]
fn malformed_models_fail_with_a_one_line_error() {
    let good = temp_path("hand_written_good.json");
    std::fs::write(&good, hand_written_model(3, 1)).unwrap();
    let out = cli()
        .args(["inspect", "--model", good.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "the well-formed model loads");
    std::fs::remove_file(&good).ok();

    // Values too large for an f32 load as infinities, which would reach the
    // SimHash sums of the tree rearrangement if the loader let them through.
    let hostile = |from: &str, to: &str| hand_written_model(3, 1).replacen(from, to, 1);
    for (name, text, expected) in [
        ("child_out_of_range.json", hand_written_model(3, 5), "child id out of range"),
        ("attribute_out_of_range.json", hand_written_model(99, 1), "attribute 99 out of range"),
        (
            "infinite_threshold.json",
            hostile("\"threshold\":5.0", "\"threshold\":1e39"),
            "non-finite threshold inf",
        ),
        (
            "infinite_leaf.json",
            hostile("\"value\":0.25", "\"value\":-1e39"),
            "non-finite leaf value -inf",
        ),
        (
            "infinite_left_prob.json",
            hostile("\"left_prob\":0.5", "\"left_prob\":1e39"),
            "left_prob inf outside [0, 1]",
        ),
    ] {
        assert_ne!(text, hand_written_model(3, 1), "{name}: the edit applies");
        let model = temp_path(name);
        std::fs::write(&model, text).unwrap();
        for command in [
            vec!["inspect"],
            vec!["infer", "--data", "letter", "--scale", "smoke", "--batch", "64"],
        ] {
            let out = cli()
                .args(&command)
                .args(["--model", model.to_str().unwrap()])
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(!out.status.success(), "{name} {command:?} must fail");
            assert!(
                !stderr.contains("panicked at") && !stdout.contains("panicked at"),
                "{name} {command:?} panicked: {stderr}"
            );
            assert_eq!(stderr.lines().count(), 1, "{name} {command:?}: {stderr}");
            assert!(
                stderr.starts_with("error: invalid forest: tree 0") && stderr.contains(expected),
                "{name} {command:?}: {stderr}"
            );
        }
        std::fs::remove_file(&model).ok();
    }
}

#[test]
fn closed_stdout_ends_output_quietly() {
    // As in `tahoe-cli inspect … | head -1`: the reader is gone before the
    // first line, so every write meets a closed pipe.
    let model = temp_path("closed_stdout.json");
    std::fs::write(&model, hand_written_model(3, 1)).unwrap();
    for args in [vec!["inspect", "--model", model.to_str().unwrap()], vec!["--help"]] {
        let mut child = cli()
            .args(&args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn tahoe-cli");
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("wait for tahoe-cli");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
        assert!(out.status.success(), "{args:?} failed: {stderr}");
        assert!(stderr.is_empty(), "{args:?} wrote to stderr: {stderr}");
    }
    std::fs::remove_file(&model).ok();
}
