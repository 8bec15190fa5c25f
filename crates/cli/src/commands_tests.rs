// Subcommand tests, included into `crate::commands` as its test module
// (kept in their own file so the command code itself stays short).
#[cfg(test)]
mod cases {
    use crate::commands::*;

    fn tmpfile(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("lsopc_cli_{}_{name}", std::process::id()))
    }

    fn to_args(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn optimize_then_evaluate_roundtrip() {
        let design_path = tmpfile("design.glp");
        let mask_path = tmpfile("mask.glp");
        std::fs::write(
            &design_path,
            "BEGIN\nCELL cli_test\nRECT 832 480 384 1088 ;\nEND\n",
        )
        .expect("write design");

        optimize(&to_args(&[
            "--glp",
            design_path.to_str().expect("utf8"),
            "--out",
            mask_path.to_str().expect("utf8"),
            "--grid",
            "128",
            "--kernels",
            "4",
            "--iters",
            "4",
        ]))
        .expect("optimize runs");
        assert!(mask_path.exists());

        evaluate(&to_args(&[
            "--glp",
            design_path.to_str().expect("utf8"),
            "--mask",
            mask_path.to_str().expect("utf8"),
            "--grid",
            "128",
            "--kernels",
            "4",
        ]))
        .expect("evaluate runs");

        std::fs::remove_file(design_path).ok();
        std::fs::remove_file(mask_path).ok();
    }

    #[test]
    fn optimize_runs_at_every_precision() {
        let design_path = tmpfile("prec_design.glp");
        std::fs::write(
            &design_path,
            "BEGIN\nCELL prec_test\nRECT 832 480 384 1088 ;\nEND\n",
        )
        .expect("write design");
        for prec in ["f64", "f32"] {
            let mask_path = tmpfile(&format!("prec_{prec}.glp"));
            optimize(&to_args(&[
                "--glp",
                design_path.to_str().expect("utf8"),
                "--out",
                mask_path.to_str().expect("utf8"),
                "--grid",
                "128",
                "--kernels",
                "4",
                "--iters",
                "3",
                "--precision",
                prec,
            ]))
            .unwrap_or_else(|e| panic!("--precision {prec} runs: {e}"));
            assert!(mask_path.exists(), "--precision {prec} wrote a mask");
            std::fs::remove_file(mask_path).ok();
        }
        std::fs::remove_file(design_path).ok();
    }

    #[test]
    fn invalid_precision_is_a_usage_error() {
        use crate::error::Category;
        let err = optimize(&to_args(&[
            "--glp",
            "x.glp",
            "--out",
            "y.glp",
            "--precision",
            "f16",
        ]))
        .expect_err("bad precision");
        assert_eq!(err.category(), Category::Usage);
        assert!(err.to_string().contains("--precision"));
    }

    #[test]
    fn optimize_runs_tiled_with_warm_start_and_schedule() {
        let design_path = tmpfile("tiled_design.glp");
        let mask_path = tmpfile("tiled_mask.glp");
        // Two copies of one feature so the warm-start cache gets a hit.
        std::fs::write(
            &design_path,
            "BEGIN\nCELL tiled_test\n\
             RECT 160 64 160 448 ;\n\
             RECT 1184 1088 160 448 ;\nEND\n",
        )
        .expect("write design");
        optimize(&to_args(&[
            "--glp",
            design_path.to_str().expect("utf8"),
            "--out",
            mask_path.to_str().expect("utf8"),
            "--grid",
            "512",
            "--kernels",
            "4",
            "--iters",
            "3",
            "--tile",
            "128",
            "--halo",
            "64",
            "--warm-start",
            "mem",
            "--schedule",
            "off",
        ]))
        .expect("tiled optimize runs");
        assert!(mask_path.exists(), "tiled run wrote a mask");
        std::fs::remove_file(design_path).ok();
        std::fs::remove_file(mask_path).ok();
    }

    #[test]
    fn optimize_accepts_an_explicit_schedule() {
        let design_path = tmpfile("sched_design.glp");
        let mask_path = tmpfile("sched_mask.glp");
        std::fs::write(
            &design_path,
            "BEGIN\nCELL sched_test\nRECT 832 480 384 1088 ;\nEND\n",
        )
        .expect("write design");
        optimize(&to_args(&[
            "--glp",
            design_path.to_str().expect("utf8"),
            "--out",
            mask_path.to_str().expect("utf8"),
            "--grid",
            "256",
            "--kernels",
            "4",
            "--iters",
            "4",
            "--schedule",
            "128,4,3,2",
        ]))
        .expect("scheduled optimize runs");
        assert!(mask_path.exists(), "scheduled run wrote a mask");
        std::fs::remove_file(design_path).ok();
        std::fs::remove_file(mask_path).ok();
    }

    #[test]
    fn schedule_and_tiling_misuse_are_usage_errors() {
        use crate::error::Category;
        let base = ["--glp", "x.glp", "--out", "y.glp"];
        for (extra, needle) in [
            (&["--schedule", "fast"][..], "--schedule"),
            (&["--schedule", "100,4,3,2"][..], "power of two"),
            (&["--schedule", "128,4,0,2"][..], "positive"),
            (&["--schedule", "128,4,3"][..], "--schedule"),
            (&["--warm-start", "mem"][..], "--tile"),
            (&["--halo", "64"][..], "--tile"),
            (&["--tile", "100", "--halo", "64"][..], "power of two"),
            (&["--tile", "128", "--halo", "256"][..], "smaller"),
            (&["--tile", "128", "--warm-start", ""][..], "--warm-start"),
            (&["--tile", "128", "--precision", "f32"][..], "f64"),
            (&["--precision", "mixed"][..], "--precision"),
            (&["--rfft", "on"][..], "--rfft"),
            (&["--iter", "3"][..], "--iter"),
        ] {
            let mut args = base.to_vec();
            args.extend_from_slice(extra);
            let err = optimize(&to_args(&args)).expect_err("misuse rejected");
            assert_eq!(err.category(), Category::Usage, "args {args:?}");
            assert!(
                err.to_string().contains(needle),
                "args {args:?}: `{err}` lacks `{needle}`"
            );
        }
    }

    #[test]
    fn optimize_requires_flags() {
        let err = optimize(&to_args(&["--glp", "x.glp"])).expect_err("missing --out");
        assert!(err.to_string().contains("--out") || err.to_string().contains("cannot read"));
    }

    #[test]
    fn error_categories_map_to_distinct_exit_codes() {
        use crate::error::Category;

        // Missing required flag → usage (2).
        let err = optimize(&to_args(&[])).expect_err("missing flags");
        assert_eq!(err.category(), Category::Usage);
        assert_eq!(err.exit_code(), 2);

        // Bad --recover value → usage (2).
        let err = optimize(&to_args(&[
            "--glp",
            "x.glp",
            "--out",
            "y.glp",
            "--recover",
            "maybe",
        ]))
        .expect_err("bad recover");
        assert_eq!(err.category(), Category::Usage);
        assert!(err.to_string().contains("--recover"));

        // Unreadable input file → I/O (3).
        let err = optimize(&to_args(&[
            "--glp",
            "/nonexistent/lsopc.glp",
            "--out",
            "y.glp",
        ]))
        .expect_err("unreadable file");
        assert_eq!(err.category(), Category::Io);
        assert_eq!(err.exit_code(), 3);

        // Malformed layout → parse (4), with the line number surfaced.
        let bad = tmpfile("bad.glp");
        std::fs::write(&bad, "RECT 1 2 3 ;\n").expect("write bad layout");
        let err = optimize(&to_args(&[
            "--glp",
            bad.to_str().expect("utf8"),
            "--out",
            "y.glp",
        ]))
        .expect_err("parse failure");
        assert_eq!(err.category(), Category::Parse);
        assert_eq!(err.exit_code(), 4);
        assert!(err.to_string().contains("line 1"));
        std::fs::remove_file(bad).ok();

        // Unusable simulator configuration → setup (5).
        let design = tmpfile("setup.glp");
        std::fs::write(&design, "BEGIN\nRECT 0 0 64 64 ;\nEND\n").expect("write design");
        let err = optimize(&to_args(&[
            "--glp",
            design.to_str().expect("utf8"),
            "--out",
            "y.glp",
            "--grid",
            "3",
        ]))
        .expect_err("setup failure");
        assert_eq!(err.category(), Category::Setup);
        assert_eq!(err.exit_code(), 5);
        std::fs::remove_file(design).ok();
    }

    #[test]
    fn empty_target_is_an_optimizer_error() {
        use crate::error::Category;
        // A design whose only shape lies outside the field rasterizes to
        // an empty target, which the optimizer rejects (exit code 6).
        let design = tmpfile("offfield.glp");
        std::fs::write(&design, "BEGIN\nRECT 900000000 900000000 64 64 ;\nEND\n")
            .expect("write design");
        let err = optimize(&to_args(&[
            "--glp",
            design.to_str().expect("utf8"),
            "--out",
            "y.glp",
            "--grid",
            "128",
            "--kernels",
            "4",
        ]))
        .expect_err("empty target");
        assert_eq!(err.category(), Category::Optimize);
        assert_eq!(err.exit_code(), 6);
        std::fs::remove_file(design).ok();
    }

    #[test]
    fn profile_metrics_document_equals_the_replayed_trace() {
        let trace_path = tmpfile("profile.jsonl");
        let metrics_path = tmpfile("profile.json");
        profile(&to_args(&[
            "--pattern",
            "wire",
            "--grid",
            "128",
            "--kernels",
            "4",
            "--iters",
            "2",
            "--trace",
            trace_path.to_str().expect("utf8"),
            "--metrics",
            metrics_path.to_str().expect("utf8"),
        ]))
        .expect("profile runs");

        let jsonl = std::fs::read_to_string(&trace_path).expect("trace file");
        assert!(jsonl.contains("\"kind\": \"span\""));
        assert!(jsonl.contains("\"kind\": \"iter\""));
        let json = std::fs::read_to_string(&metrics_path).expect("metrics file");
        assert!(json.contains("fft2d."), "profile saw FFT spans");
        // Live and offline are one model: replaying the stream gives
        // the document --metrics wrote, byte for byte.
        let replayed = lsopc_trace::analyze::analyze(&jsonl).expect("trace analyzes");
        assert_eq!(replayed.skipped, 0);
        assert_eq!(replayed.metrics.to_json(), json);
        std::fs::remove_file(trace_path).ok();
        std::fs::remove_file(metrics_path).ok();
    }

    #[test]
    fn failed_trace_write_is_an_io_error_naming_the_path() {
        use crate::error::Category;
        // /dev/full accepts the open and fails every write with ENOSPC.
        if !std::path::Path::new("/dev/full").exists() {
            return;
        }
        let design_path = tmpfile("full_design.glp");
        let mask_path = tmpfile("full_mask.glp");
        std::fs::write(
            &design_path,
            "BEGIN\nCELL full_test\nRECT 832 480 384 1088 ;\nEND\n",
        )
        .expect("write design");
        let small = ["--grid", "128", "--kernels", "4", "--iters", "2"];
        let mut optimize_args = vec![
            "--glp",
            design_path.to_str().expect("utf8"),
            "--out",
            mask_path.to_str().expect("utf8"),
            "--trace",
            "/dev/full",
        ];
        optimize_args.extend_from_slice(&small);
        let mut profile_args = vec!["--trace", "/dev/full"];
        profile_args.extend_from_slice(&small);
        for (name, result) in [
            ("optimize", optimize(&to_args(&optimize_args))),
            ("profile", profile(&to_args(&profile_args))),
        ] {
            let err = result.expect_err("a trace that cannot be written fails the run");
            assert_eq!(err.category(), Category::Io, "{name}: {err}");
            assert_eq!(err.exit_code(), 3, "{name}");
            assert!(err.to_string().contains("/dev/full"), "{name}: {err}");
        }
        std::fs::remove_file(design_path).ok();
        std::fs::remove_file(mask_path).ok();
    }

    #[test]
    fn profile_json_mode_runs_and_metrics_file_matches_schema() {
        let metrics_path = tmpfile("profile_json.json");
        profile(&to_args(&[
            "--pattern",
            "wire",
            "--grid",
            "128",
            "--kernels",
            "4",
            "--iters",
            "2",
            "--json",
            "--metrics",
            metrics_path.to_str().expect("utf8"),
        ]))
        .expect("profile --json runs");
        // --json prints the same document --metrics writes; the file is
        // the observable copy.
        let json = std::fs::read_to_string(&metrics_path).expect("metrics file");
        assert!(json.contains("\"v\":"), "document carries schema version");
        assert!(json.contains("\"spans\":"), "document carries span table");
        std::fs::remove_file(metrics_path).ok();
    }

    #[test]
    fn analyze_round_trips_a_profile_trace() {
        let trace_path = tmpfile("analyze.jsonl");
        profile(&to_args(&[
            "--pattern",
            "wire",
            "--grid",
            "128",
            "--kernels",
            "4",
            "--iters",
            "3",
            "--trace",
            trace_path.to_str().expect("utf8"),
        ]))
        .expect("profile writes trace");
        analyze(&to_args(&[trace_path.to_str().expect("utf8")]))
            .expect("analyze reads the trace back");
        std::fs::remove_file(trace_path).ok();
    }

    #[test]
    fn analyze_flag_and_file_errors_are_categorized() {
        use crate::error::Category;

        let err = analyze(&to_args(&[])).expect_err("missing path");
        assert_eq!(err.category(), Category::Usage);
        assert!(err.to_string().contains("analyze"));

        let err = analyze(&to_args(&["--help"])).expect_err("flag is not a path");
        assert_eq!(err.category(), Category::Usage);

        let err = analyze(&to_args(&["/nonexistent/lsopc.jsonl"])).expect_err("unreadable");
        assert_eq!(err.category(), Category::Io);

        let garbage = tmpfile("analyze_garbage.jsonl");
        std::fs::write(&garbage, "not a trace\nstill not a trace\n").expect("write garbage");
        let err =
            analyze(&to_args(&[garbage.to_str().expect("utf8")])).expect_err("no parseable events");
        assert_eq!(err.category(), Category::Parse);
        std::fs::remove_file(garbage).ok();
    }

    #[test]
    fn profile_rejects_unknown_pattern() {
        use crate::error::Category;
        let err = profile(&to_args(&["--pattern", "nonsense"])).expect_err("bad pattern");
        assert_eq!(err.category(), Category::Usage);
        assert!(err.to_string().contains("--pattern"));
    }

    #[test]
    fn suite_runs_one_small_case() {
        suite(&to_args(&[
            "--cases",
            "4",
            "--grid",
            "128",
            "--kernels",
            "4",
            "--iters",
            "2",
        ]))
        .expect("suite runs");
    }

    #[test]
    fn deadline_zero_stops_gracefully_with_best_so_far_mask() {
        let design_path = tmpfile("deadline_design.glp");
        let mask_path = tmpfile("deadline_mask.glp");
        std::fs::write(
            &design_path,
            "BEGIN\nCELL deadline_test\nRECT 832 480 384 1088 ;\nEND\n",
        )
        .expect("write design");
        // A zero-second deadline expires at the first iteration boundary;
        // the run must still finish cleanly and write the initial mask.
        let outcome = optimize(&to_args(&[
            "--glp",
            design_path.to_str().expect("utf8"),
            "--out",
            mask_path.to_str().expect("utf8"),
            "--grid",
            "128",
            "--kernels",
            "4",
            "--iters",
            "8",
            "--deadline",
            "0",
        ]))
        .expect("deadline stop is graceful, not an error");
        assert_eq!(outcome, Outcome::Completed, "deadline stop exits 0");
        assert!(mask_path.exists(), "best-so-far mask was written");
        std::fs::remove_file(design_path).ok();
        std::fs::remove_file(mask_path).ok();
    }

    #[test]
    fn checkpoint_then_resume_completes_the_run() {
        let design_path = tmpfile("ck_design.glp");
        let mask_path = tmpfile("ck_mask.glp");
        let ck_path = tmpfile("ck_state.lsckpt");
        std::fs::write(
            &design_path,
            "BEGIN\nCELL ck_test\nRECT 832 480 384 1088 ;\nEND\n",
        )
        .expect("write design");
        let common = |extra: &[&str]| {
            let mut args = vec![
                "--glp",
                design_path.to_str().expect("utf8"),
                "--out",
                mask_path.to_str().expect("utf8"),
                "--grid",
                "128",
                "--kernels",
                "4",
                "--iters",
                "4",
            ];
            args.extend_from_slice(extra);
            to_args(&args)
        };
        // Phase 1: stop after 2 iterations via the budget; the graceful
        // stop must write a final checkpoint even though the periodic
        // interval (default 10) never fired.
        let outcome = optimize(&common(&[
            "--iter-budget",
            "2",
            "--checkpoint",
            ck_path.to_str().expect("utf8"),
        ]))
        .expect("budget stop is graceful");
        assert_eq!(outcome, Outcome::Completed);
        assert!(ck_path.exists(), "graceful stop wrote a checkpoint");
        // Phase 2: resume from it and run to completion.
        let outcome = optimize(&common(&["--resume", ck_path.to_str().expect("utf8")]))
            .expect("resume runs to completion");
        assert_eq!(outcome, Outcome::Completed);
        assert!(mask_path.exists());
        std::fs::remove_file(design_path).ok();
        std::fs::remove_file(mask_path).ok();
        std::fs::remove_file(ck_path).ok();
    }

    #[test]
    fn resume_at_another_precision_is_a_checkpoint_error() {
        use crate::error::Category;
        let design_path = tmpfile("ck_prec_design.glp");
        let mask_path = tmpfile("ck_prec_mask.glp");
        let ck_path = tmpfile("ck_prec_state.lsckpt");
        std::fs::write(
            &design_path,
            "BEGIN\nCELL ck_prec\nRECT 832 480 384 1088 ;\nEND\n",
        )
        .expect("write design");
        let run = |extra: &[&str]| {
            let mut args = vec![
                "--glp",
                design_path.to_str().expect("utf8"),
                "--out",
                mask_path.to_str().expect("utf8"),
                "--grid",
                "128",
                "--kernels",
                "4",
                "--iters",
                "4",
            ];
            args.extend_from_slice(extra);
            optimize(&to_args(&args))
        };
        let outcome = run(&[
            "--precision",
            "f64",
            "--iter-budget",
            "2",
            "--checkpoint",
            ck_path.to_str().expect("utf8"),
        ])
        .expect("budget stop is graceful");
        assert_eq!(outcome, Outcome::Completed);
        // The f64 checkpoint must not resume into an f32 run.
        let err = run(&[
            "--precision",
            "f32",
            "--resume",
            ck_path.to_str().expect("utf8"),
        ])
        .expect_err("precision mismatch");
        assert_eq!(err.category(), Category::Checkpoint);
        assert_eq!(err.exit_code(), 9);
        assert!(
            err.to_string().contains("configuration"),
            "message names the mismatch: {err}"
        );
        std::fs::remove_file(design_path).ok();
        std::fs::remove_file(mask_path).ok();
        std::fs::remove_file(ck_path).ok();
    }

    #[test]
    fn missing_resume_file_is_a_checkpoint_error() {
        use crate::error::Category;
        let design_path = tmpfile("resume_missing.glp");
        std::fs::write(
            &design_path,
            "BEGIN\nCELL resume_missing\nRECT 832 480 384 1088 ;\nEND\n",
        )
        .expect("write design");
        let err = optimize(&to_args(&[
            "--glp",
            design_path.to_str().expect("utf8"),
            "--out",
            "y.glp",
            "--grid",
            "128",
            "--kernels",
            "4",
            "--resume",
            "/nonexistent/lsopc.lsckpt",
        ]))
        .expect_err("missing resume file");
        assert_eq!(err.category(), Category::Checkpoint);
        assert_eq!(err.exit_code(), 9);
        std::fs::remove_file(design_path).ok();
    }

    #[test]
    fn lifecycle_flag_misuse_is_a_usage_error() {
        use crate::error::Category;
        let base = ["--glp", "x.glp", "--out", "y.glp"];
        for (extra, needle) in [
            (&["--deadline", "soon"][..], "--deadline"),
            (&["--deadline", "-1"][..], "--deadline"),
            (&["--max-wall", "inf"][..], "--max-wall"),
            (&["--iter-budget", "0"][..], "--iter-budget"),
            (&["--checkpoint-every", "3"][..], "--checkpoint"),
            (
                &["--checkpoint", "c.lsckpt", "--checkpoint-every", "0"][..],
                "--checkpoint-every",
            ),
            (&["--checkpoint", ""][..], "--checkpoint"),
            (&["--resume", ""][..], "--resume"),
        ] {
            let mut args = base.to_vec();
            args.extend_from_slice(extra);
            let err = optimize(&to_args(&args)).expect_err("misuse rejected");
            assert_eq!(err.category(), Category::Usage, "args {args:?}");
            assert!(
                err.to_string().contains(needle),
                "args {args:?}: `{err}` lacks `{needle}`"
            );
        }
    }

    #[test]
    fn suite_shares_the_optimize_flag_validation() {
        use crate::error::Category;
        // `suite` resolves its flags through the same spec builder as
        // `optimize`, so the same misuse is rejected the same way.
        for (args, needle) in [
            (&["--precision", "f16"][..], "--precision"),
            (&["--schedule", "fast"][..], "--schedule"),
            (&["--recover", "maybe"][..], "--recover"),
            (&["--precision", "mixed"][..], "--precision"),
            (&["--rfft", "on"][..], "--rfft"),
            (&["--tile", "128"][..], "--tile"),
        ] {
            let err = suite(&to_args(args)).expect_err("misuse rejected");
            assert_eq!(err.category(), Category::Usage, "args {args:?}");
            assert!(
                err.to_string().contains(needle),
                "args {args:?}: `{err}` lacks `{needle}`"
            );
        }
    }

    #[test]
    fn every_command_rejects_unknown_flags() {
        use crate::error::Category;
        for (name, run) in [
            ("optimize", optimize as fn(&[String]) -> CliResult),
            ("evaluate", evaluate),
            ("report", report),
            ("suite", suite),
            ("profile", profile),
        ] {
            // A typo of --iters: rejected before any file is read or any
            // job runs, naming the flag and the command.
            let err = run(&to_args(&["--glp", "x.glp", "--iter", "3"]))
                .expect_err("unknown flag rejected");
            assert_eq!(err.category(), Category::Usage, "{name}");
            let msg = err.to_string();
            assert!(
                msg.contains("--iter ") && msg.contains(name),
                "{name}: `{msg}`"
            );
        }
    }
}

#[cfg(test)]
mod report_tests {
    use crate::commands::*;

    #[test]
    fn report_subcommand_runs() {
        let dir = std::env::temp_dir();
        let design = dir.join(format!("lsopc_rep_{}.glp", std::process::id()));
        std::fs::write(&design, "BEGIN\nCELL rep\nRECT 832 480 384 1088 ;\nEND\n")
            .expect("write design");
        // Report the design against itself (uncorrected mask).
        report(
            &[
                "--glp",
                design.to_str().expect("utf8"),
                "--mask",
                design.to_str().expect("utf8"),
                "--grid",
                "128",
                "--kernels",
                "4",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>(),
        )
        .expect("report runs");
        std::fs::remove_file(design).ok();
    }
}
