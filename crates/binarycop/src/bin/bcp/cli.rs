//! The argument parser and the typed flag helpers every subcommand shares.
//! A bad, missing or unknown flag prints a message and exits 2.

use bcp_dataset::{Dataset, GeneratorConfig};
use bcp_serve::BackpressurePolicy;
use binarycop::arch::ArchKind;
use binarycop::predictor::BinaryCoP;
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::exit;
use std::str::FromStr;

/// Flags that take no value.
const BOOL_FLAGS: [&str; 3] = ["all-arches", "json", "dump-metrics"];

/// Print `msg` and exit 2, the exit code of every bad command line.
pub fn usage_error(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    exit(2);
}

/// `result` of reading or writing `path`; an error prints `path: error`
/// and exits 1, as an unreadable input file does.
pub fn or_exit<T>(path: &str, result: Result<T, impl std::fmt::Display>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        exit(1);
    })
}

/// One subcommand's command line: `--flag value` pairs, bare boolean
/// flags, and positional arguments.
pub struct Args {
    flags: HashMap<String, String>,
    pub positional: Vec<String>,
}

impl Args {
    /// Parse `raw` for `bcp <command>`, refusing any flag not in `accepted`.
    pub fn parse(command: &str, raw: &[String], accepted: &[&str]) -> Args {
        let mut flags = HashMap::new();
        let mut positional = Vec::new();
        let mut rest = raw.iter();
        while let Some(arg) = rest.next() {
            let Some(name) = arg.strip_prefix("--") else {
                positional.push(arg.clone());
                continue;
            };
            if !accepted.contains(&name) {
                usage_error(format!("bcp {command}: unknown flag --{name}"));
            }
            let value = if BOOL_FLAGS.contains(&name) {
                "true".to_string()
            } else {
                let missing = || usage_error(format!("flag --{name} needs a value"));
                rest.next().cloned().unwrap_or_else(missing)
            };
            flags.insert(name.to_string(), value);
        }
        Args { flags, positional }
    }

    /// The value of `--flag`, if given.
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.flags.get(flag).map(String::as_str)
    }

    /// Whether `--flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.flags.contains_key(flag)
    }

    /// The value of `--flag`; exits 2 when it is missing.
    pub fn required(&self, flag: &str) -> &str {
        self.get(flag)
            .unwrap_or_else(|| usage_error(format!("missing required flag --{flag}")))
    }

    /// `--flag` parsed as a `T`, if given; a value that does not parse
    /// exits 2 saying the flag needs `what` ("an integer", "a number").
    pub fn parse_as<T: FromStr>(&self, flag: &str, what: &str) -> Option<T> {
        self.get(flag).map(|v| {
            v.parse()
                .unwrap_or_else(|_| usage_error(format!("--{flag} needs {what}, got '{v}'")))
        })
    }

    /// `--flag N`-style integer with a default.
    pub fn int(&self, flag: &str, default: usize) -> usize {
        self.parse_as(flag, "an integer").unwrap_or(default)
    }

    /// `--arch`, required.
    pub fn arch_kind(&self) -> ArchKind {
        parse_arch(self.required("arch"))
    }

    /// `--policy block|reject|shed`, or `default` when the flag is absent.
    pub fn policy(&self, default: BackpressurePolicy) -> BackpressurePolicy {
        match self.get("policy").map(str::to_ascii_lowercase).as_deref() {
            None => default,
            Some("block") => BackpressurePolicy::Block,
            Some("reject") => BackpressurePolicy::Reject,
            Some("shed") => BackpressurePolicy::ShedOldest,
            Some(other) => usage_error(format!(
                "unknown policy '{other}' (use block | reject | shed)"
            )),
        }
    }

    /// The predictor in `--accel`, deployed for `--arch`.
    pub fn load_predictor(&self) -> BinaryCoP {
        let arch = self.arch_kind().arch();
        let accel = self.required("accel");
        or_exit(accel, BinaryCoP::load_image(accel, &arch))
    }

    /// Benchmark predictor: a trained accelerator image when `--accel` is
    /// given, else an untrained (but deployable) network at `--arch`
    /// (default tiny); throughput does not depend on the weights.
    pub fn bench_predictor(&self) -> BinaryCoP {
        if self.has("accel") {
            return self.load_predictor();
        }
        let arch = match self.get("arch") {
            None | Some("tiny") => binarycop::recipe::tiny_arch(),
            Some(name) => parse_arch(name).arch(),
        };
        binarycop::model::untrained_predictor(&arch, 0, 1)
    }

    /// `--telemetry <dir>`.
    pub fn telemetry(&self) -> Telemetry {
        let dir = self.get("telemetry").map(PathBuf::from);
        Telemetry(dir.map(|dir| (bcp_trace::Registry::with_event_buffer(), dir)))
    }
}

fn parse_arch(name: &str) -> ArchKind {
    match name.to_ascii_lowercase().as_str() {
        "cnv" => ArchKind::Cnv,
        "ncnv" | "n-cnv" => ArchKind::NCnv,
        "ucnv" | "µ-cnv" | "μ-cnv" | "micro" => ArchKind::MicroCnv,
        other => usage_error(format!(
            "unknown architecture '{other}' (use cnv | ncnv | ucnv)"
        )),
    }
}

/// `--telemetry <dir>`: an event-buffering registry that collects metrics
/// and JSONL events during the command, for [`Telemetry::save`] to write.
pub struct Telemetry(Option<(bcp_trace::Registry, PathBuf)>);

impl Telemetry {
    /// The registry, when `--telemetry` was given.
    pub fn registry(&self) -> Option<&bcp_trace::Registry> {
        self.0.as_ref().map(|(registry, _)| registry)
    }

    /// `predictor`, reporting into the registry when there is one.
    pub fn attach(&self, predictor: BinaryCoP) -> BinaryCoP {
        match self.registry() {
            Some(registry) => predictor.with_telemetry(registry.clone()),
            None => predictor,
        }
    }

    /// Write `<dir>/events.jsonl` + `<dir>/summary.json` and print the
    /// registry's text dump to stderr; exits 1 when `<dir>` cannot be written.
    pub fn save(self) {
        let Some((registry, dir)) = self.0 else {
            return;
        };
        let summary = registry.write_artifacts(&dir).unwrap_or_else(|e| {
            eprintln!("cannot write telemetry artifacts to {}: {e}", dir.display());
            exit(1);
        });
        eprint!("{}", registry.render_text());
        eprintln!(
            "telemetry artifacts: {} and {}",
            summary.display(),
            dir.join("events.jsonl").display()
        );
    }
}

/// Deterministic synthetic frames, regenerable from `(img_size, n, seed)`
/// alone: a `gateway-bench` child rebuilds the parent's frames from them.
pub fn bench_frames(img_size: usize, n: usize, seed: u64) -> Vec<bcp_tensor::Tensor> {
    let gen = GeneratorConfig {
        img_size,
        supersample: 2,
    };
    let ds = Dataset::generate_balanced(&gen, n.div_ceil(4), seed);
    (0..n.min(ds.len())).map(|i| ds.image(i)).collect()
}
