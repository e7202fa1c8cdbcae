//! `bcp` — the BinaryCoP deployment CLI.
//!
//! ```text
//! usage: bcp <check|train|deploy|classify|info|demo|serve-bench|profile|gateway|gateway-bench|scrub-bench|lint|audit> [flags]
//!   bcp check    --arch ncnv | --all-arches [--device z7020|z7010] [--target-fps 30] [--fifo-depth 4] [--json]
//!   bcp train    --arch ncnv --out model.json [--per-class 100] [--epochs 8] [--telemetry <dir>]
//!   bcp deploy   --arch ncnv --model model.json --out accel.json
//!   bcp classify --arch ncnv --accel accel.json [--telemetry <dir>] face.ppm …
//!   bcp info     --arch ncnv [--accel accel.json]
//!   bcp demo     [--telemetry <dir>]
//!   bcp serve-bench [--arch tiny|cnv|ncnv|ucnv [--accel accel.json]] [--workers 2] [--clients 8] [--requests 50] [--frames 32] [--max-batch 8] [--queue-cap 64] [--policy block|reject|shed] [--deadline-ms N] [--dump-metrics] [--telemetry <dir>]
//!   bcp profile  [--arch tiny|cnv|ncnv|ucnv [--accel accel.json]] [--workers 2] [--clients 8] [--requests 40] [--frames 32] [--sample-rate 1] [--max-batch 8] [--out profile-out]
//!   bcp gateway  [--arch tiny|cnv|ncnv|ucnv [--accel accel.json]] [--shards 3] [--workers 1] [--queue-cap 64] [--max-batch 8] [--policy block|reject|shed] [--addr 127.0.0.1:0] [--deadline-ms 2000] [--read-timeout-ms 100] [--probe-interval-ms 50] [--tenant-rate N] [--tenant-burst N] [--tenant-quota N] [--duration-s 0]
//!   bcp gateway-bench [--arch tiny|cnv|ncnv|ucnv [--accel accel.json]] [--shards 3] [--workers 1] [--queue-cap 64] [--max-batch 8] [--policy block|reject|shed] [--addr 127.0.0.1:0] [--read-timeout-ms 100] [--probe-interval-ms 50] [--tenant-rate N] [--tenant-burst N] [--tenant-quota N] [--clients 4] [--requests 80] [--frames 16] [--seed N] [--spacing-us 2000] [--deadline-ms 2000] [--chaos "kill:1@150;revive:1@600"] [--json-out bench.json]  (child client: --connect <addr> [--client-id 0] [--tenant 1] [--img-size 16] [--expect <labels,…>])
//!   bcp scrub-bench [--arch tiny|cnv|ncnv|ucnv [--accel accel.json]] [--faults 64] [--seed 7] [--frames 32] [--units 8] [--telemetry <dir>]
//!   bcp lint     [--root <workspace-dir>] [--json]
//!   bcp audit    [--root <workspace-dir>] [--json]
//!   --max-batch: the most requests a worker pulls off the queue for one batch; it takes what is queued and never waits for more
//! ```
//!
//! One table, [`COMMANDS`], drives dispatch, this usage text and flag
//! validation: a subcommand accepts exactly the flags its usage line
//! spells, and an unknown flag, a flag without its value or a value that
//! does not parse prints a message and exits 2. The handlers live in one
//! module per family: [`model`], [`serve`], [`gateway`], [`guard`] and
//! [`source`]. `--telemetry <dir>` writes `<dir>/events.jsonl` and
//! `<dir>/summary.json` (schema: `bcp_trace::Snapshot`) and prints the
//! registry's text dump to stderr.

#![forbid(unsafe_code)]

mod cli;
mod gateway;
mod guard;
mod model;
mod serve;
mod source;

use cli::Args;
use std::process::exit;

/// One subcommand: its usage line and its handler. The subcommand accepts
/// exactly the `--flags` its usage line spells.
struct Command {
    name: &'static str,
    usage: &'static str,
    run: fn(&Args),
}

impl Command {
    /// The flags the usage line spells, without their `--`.
    fn flags(&self) -> Vec<&'static str> {
        let words = self
            .usage
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'));
        words.filter_map(|w| w.strip_prefix("--")).collect()
    }
}

/// Every subcommand, in usage order.
const COMMANDS: &[Command] = &[
    Command {
        name: "check",
        usage: "--arch ncnv | --all-arches [--device z7020|z7010] [--target-fps 30] \
                [--fifo-depth 4] [--json]",
        run: model::check,
    },
    Command {
        name: "train",
        usage: "--arch ncnv --out model.json [--per-class 100] [--epochs 8] [--telemetry <dir>]",
        run: model::train,
    },
    Command {
        name: "deploy",
        usage: "--arch ncnv --model model.json --out accel.json",
        run: model::deploy,
    },
    Command {
        name: "classify",
        usage: "--arch ncnv --accel accel.json [--telemetry <dir>] face.ppm …",
        run: model::classify,
    },
    Command {
        name: "info",
        usage: "--arch ncnv [--accel accel.json]",
        run: model::info,
    },
    Command {
        name: "demo",
        usage: "[--telemetry <dir>]",
        run: model::demo,
    },
    Command {
        name: "serve-bench",
        usage: "[--arch tiny|cnv|ncnv|ucnv [--accel accel.json]] [--workers 2] [--clients 8] \
                [--requests 50] [--frames 32] [--max-batch 8] [--queue-cap 64] \
                [--policy block|reject|shed] [--deadline-ms N] [--dump-metrics] \
                [--telemetry <dir>]",
        run: serve::serve_bench,
    },
    Command {
        name: "profile",
        usage: "[--arch tiny|cnv|ncnv|ucnv [--accel accel.json]] [--workers 2] [--clients 8] \
                [--requests 40] [--frames 32] [--sample-rate 1] [--max-batch 8] \
                [--out profile-out]",
        run: serve::profile,
    },
    Command {
        name: "gateway",
        usage: "[--arch tiny|cnv|ncnv|ucnv [--accel accel.json]] [--shards 3] [--workers 1] \
                [--queue-cap 64] [--max-batch 8] [--policy block|reject|shed] \
                [--addr 127.0.0.1:0] [--deadline-ms 2000] [--read-timeout-ms 100] \
                [--probe-interval-ms 50] [--tenant-rate N] [--tenant-burst N] \
                [--tenant-quota N] [--duration-s 0]",
        run: gateway::gateway,
    },
    Command {
        name: "gateway-bench",
        usage: "[--arch tiny|cnv|ncnv|ucnv [--accel accel.json]] [--shards 3] [--workers 1] \
                [--queue-cap 64] [--max-batch 8] [--policy block|reject|shed] \
                [--addr 127.0.0.1:0] [--read-timeout-ms 100] [--probe-interval-ms 50] \
                [--tenant-rate N] [--tenant-burst N] [--tenant-quota N] [--clients 4] \
                [--requests 80] [--frames 16] [--seed N] [--spacing-us 2000] \
                [--deadline-ms 2000] [--chaos \"kill:1@150;revive:1@600\"] \
                [--json-out bench.json]  (child client: --connect <addr> [--client-id 0] \
                [--tenant 1] [--img-size 16] [--expect <labels,…>])",
        run: gateway::gateway_bench,
    },
    Command {
        name: "scrub-bench",
        usage: "[--arch tiny|cnv|ncnv|ucnv [--accel accel.json]] [--faults 64] [--seed 7] \
                [--frames 32] [--units 8] [--telemetry <dir>]",
        run: guard::scrub_bench,
    },
    Command {
        name: "lint",
        usage: "[--root <workspace-dir>] [--json]",
        run: source::lint,
    },
    Command {
        name: "audit",
        usage: "[--root <workspace-dir>] [--json]",
        run: source::audit,
    },
];

/// The usage text: one line per [`COMMANDS`] entry, then the `--max-batch` note.
fn usage() -> String {
    let names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
    let mut text = format!("usage: bcp <{}> [flags]\n", names.join("|"));
    for c in COMMANDS {
        text += &format!("  bcp {:<8} {}\n", c.name, c.usage);
    }
    text + "  --max-batch: the most requests a worker pulls off the queue for one batch; \
            it takes what is queued and never waits for more\n"
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let name = raw.first().map_or("", String::as_str);
    let Some(command) = COMMANDS.iter().find(|c| c.name == name) else {
        eprint!("{}", usage());
        exit(2);
    };
    (command.run)(&Args::parse(name, &raw[1..], &command.flags()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_lines_spell_the_accepted_flags() {
        let flags = |name| COMMANDS.iter().find(|c| c.name == name).unwrap().flags();
        let check = [
            "arch",
            "all-arches",
            "device",
            "target-fps",
            "fifo-depth",
            "json",
        ];
        assert_eq!(flags("check"), check);
        assert_eq!(flags("demo"), ["telemetry"]);
        let bench = flags("gateway-bench");
        for child in [
            "connect",
            "client-id",
            "tenant",
            "img-size",
            "expect",
            "accel",
        ] {
            assert!(bench.contains(&child), "{child}");
        }
        assert!(!bench.contains(&"duration-s"));
    }

    #[test]
    fn the_module_doc_is_the_usage_text() {
        let doc: String = include_str!("main.rs")
            .lines()
            .filter_map(|l| l.strip_prefix("//! "))
            .skip_while(|l| !l.starts_with("usage: "))
            .take_while(|l| !l.starts_with("```"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(doc, usage());
    }
}
