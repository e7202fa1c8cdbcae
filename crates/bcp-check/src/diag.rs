//! The typed diagnostics engine: stable error codes, severities, source
//! locations, and serializable reports.
//!
//! Every verification pass in this crate emits [`Diagnostic`]s instead of
//! panicking. A [`Code`] is stable across releases — tooling (CI greps,
//! the mutation corpus, dashboards) keys on the `BCP0xx` string, never on
//! the human message text.

use serde::{Deserialize, Serialize, Value};
use std::fmt;

/// Stable diagnostic codes. The numeric bands group related analyses:
///
/// | band      | analysis                                   |
/// |-----------|--------------------------------------------|
/// | `BCP00x`  | graph shape inference                      |
/// | `BCP01x`  | PE×SIMD folding legality                   |
/// | `BCP02x`  | per-layer cycle budgets                    |
/// | `BCP03x`  | streaming rate balance / FIFO deadlock     |
/// | `BCP04x`  | threshold soundness                        |
/// | `BCP05x`  | device resource fit                        |
/// | `BCP06x`  | checker configuration                      |
/// | `BCP10x`  | repo-invariant lints (`bcp lint`)          |
/// | `BCP11x`  | lint configuration                         |
/// | `BCP2xx`  | hot-path audit (`bcp audit`)               |
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Code {
    /// `BCP001` — consecutive conv layers disagree on channel count.
    ConvChainMismatch,
    /// `BCP002` — consecutive FC layers disagree on feature count.
    FcChainMismatch,
    /// `BCP003` — first FC fan-in ≠ flattened conv output.
    FlattenMismatch,
    /// `BCP004` — classifier head width ≠ the class count.
    HeadWidthMismatch,
    /// `BCP005` — PE vector length ≠ compute-layer count.
    PeVectorLength,
    /// `BCP006` — SIMD vector length ≠ compute-layer count.
    SimdVectorLength,
    /// `BCP007` — 2×2 pool applied to an odd spatial extent.
    OddPoolExtent,
    /// `BCP008` — spatial extent shrinks below the kernel size.
    SpatialUnderflow,
    /// `BCP009` — pipeline structure broken (stage chain / ordering).
    PipelineStructure,
    /// `BCP010` — folding factor (PE or SIMD) is zero.
    ZeroFolding,
    /// `BCP011` — PE count does not divide the layer's output neurons.
    PeNotDivisor,
    /// `BCP012` — SIMD width does not divide the layer's fan-in.
    SimdNotDivisor,
    /// `BCP020` — a stage's cycles/frame exceeds the target-fps budget.
    CycleBudgetExceeded,
    /// `BCP021` — cycle arithmetic overflows u64 (degenerate dimensioning).
    CycleOverflow,
    /// `BCP030` — zero-depth inter-stage FIFO: the handshake deadlocks.
    FifoDeadlock,
    /// `BCP031` — rate imbalance: a stage idles ≥ 15/16 of steady state.
    StageStarved,
    /// `BCP032` — back-pressure degrades steady-state II below the model.
    BackpressureThroughput,
    /// `BCP040` — threshold outside the accumulator's representable range.
    ThresholdOutOfRange,
    /// `BCP041` — threshold reachable but constant (dead channel).
    DeadThresholdChannel,
    /// `BCP042` — hidden stage is missing its threshold bank.
    MissingThresholds,
    /// `BCP043` — logits stage carries an (ignored) threshold bank.
    ExtraThresholds,
    /// `BCP050` — LUT estimate exceeds the device budget.
    LutOverBudget,
    /// `BCP051` — BRAM18 estimate exceeds the device budget.
    BramOverBudget,
    /// `BCP052` — DSP estimate exceeds the device budget.
    DspOverBudget,
    /// `BCP053` — a resource is above 90 % of the device budget.
    NearBudget,
    /// `BCP060` — checker configuration is itself invalid.
    InvalidConfig,
    /// `BCP100` — an atomic `Ordering::*` use without a `// ordering:`
    /// justification comment.
    UnjustifiedOrdering,
    /// `BCP101` — `unsafe` in workspace source.
    UnsafeCode,
    /// `BCP102` — `unwrap()` on a channel send/recv in a serving hot path.
    HotPathChannelUnwrap,
    /// `BCP103` — telemetry metric emitted in code but absent from the
    /// README metrics tables.
    UndocumentedMetric,
    /// `BCP110` — the lint pass itself could not run as configured.
    LintConfigError,
    /// `BCP200` — panic site (`unwrap`/`expect`/`panic!`/…) reachable
    /// from a hot-path root.
    HotPathPanic,
    /// `BCP201` — slice/array indexing without `get` reachable from a
    /// hot-path root.
    HotPathIndexing,
    /// `BCP202` — unchecked division/remainder by a non-literal divisor
    /// reachable from a hot-path root.
    HotPathDivision,
    /// `BCP210` — heap allocation reachable from a hot-path root.
    HotPathAllocation,
    /// `BCP220` — blocking call (lock, I/O, sleep) reachable from a
    /// hot-path root without an `// audit: allow(block)` justification.
    HotPathBlocking,
    /// `BCP230` — unjustified narrowing `as` cast reachable from a
    /// hot-path root.
    HotPathNarrowingCast,
    /// `BCP240` — the audit pass itself could not run as configured.
    AuditConfigError,
}

impl Code {
    /// Every code, in numeric order (drives the README reference table).
    pub const ALL: [Code; 38] = [
        Code::ConvChainMismatch,
        Code::FcChainMismatch,
        Code::FlattenMismatch,
        Code::HeadWidthMismatch,
        Code::PeVectorLength,
        Code::SimdVectorLength,
        Code::OddPoolExtent,
        Code::SpatialUnderflow,
        Code::PipelineStructure,
        Code::ZeroFolding,
        Code::PeNotDivisor,
        Code::SimdNotDivisor,
        Code::CycleBudgetExceeded,
        Code::CycleOverflow,
        Code::FifoDeadlock,
        Code::StageStarved,
        Code::BackpressureThroughput,
        Code::ThresholdOutOfRange,
        Code::DeadThresholdChannel,
        Code::MissingThresholds,
        Code::ExtraThresholds,
        Code::LutOverBudget,
        Code::BramOverBudget,
        Code::DspOverBudget,
        Code::NearBudget,
        Code::InvalidConfig,
        Code::UnjustifiedOrdering,
        Code::UnsafeCode,
        Code::HotPathChannelUnwrap,
        Code::UndocumentedMetric,
        Code::LintConfigError,
        Code::HotPathPanic,
        Code::HotPathIndexing,
        Code::HotPathDivision,
        Code::HotPathAllocation,
        Code::HotPathBlocking,
        Code::HotPathNarrowingCast,
        Code::AuditConfigError,
    ];

    /// The stable `BCP0xx` string.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::ConvChainMismatch => "BCP001",
            Code::FcChainMismatch => "BCP002",
            Code::FlattenMismatch => "BCP003",
            Code::HeadWidthMismatch => "BCP004",
            Code::PeVectorLength => "BCP005",
            Code::SimdVectorLength => "BCP006",
            Code::OddPoolExtent => "BCP007",
            Code::SpatialUnderflow => "BCP008",
            Code::PipelineStructure => "BCP009",
            Code::ZeroFolding => "BCP010",
            Code::PeNotDivisor => "BCP011",
            Code::SimdNotDivisor => "BCP012",
            Code::CycleBudgetExceeded => "BCP020",
            Code::CycleOverflow => "BCP021",
            Code::FifoDeadlock => "BCP030",
            Code::StageStarved => "BCP031",
            Code::BackpressureThroughput => "BCP032",
            Code::ThresholdOutOfRange => "BCP040",
            Code::DeadThresholdChannel => "BCP041",
            Code::MissingThresholds => "BCP042",
            Code::ExtraThresholds => "BCP043",
            Code::LutOverBudget => "BCP050",
            Code::BramOverBudget => "BCP051",
            Code::DspOverBudget => "BCP052",
            Code::NearBudget => "BCP053",
            Code::InvalidConfig => "BCP060",
            Code::UnjustifiedOrdering => "BCP100",
            Code::UnsafeCode => "BCP101",
            Code::HotPathChannelUnwrap => "BCP102",
            Code::UndocumentedMetric => "BCP103",
            Code::LintConfigError => "BCP110",
            Code::HotPathPanic => "BCP200",
            Code::HotPathIndexing => "BCP201",
            Code::HotPathDivision => "BCP202",
            Code::HotPathAllocation => "BCP210",
            Code::HotPathBlocking => "BCP220",
            Code::HotPathNarrowingCast => "BCP230",
            Code::AuditConfigError => "BCP240",
        }
    }

    /// Parse a stable code string back into the enum.
    pub fn from_str_code(s: &str) -> Option<Code> {
        Code::ALL.iter().copied().find(|c| c.as_str() == s)
    }

    /// One-line description for the reference table.
    pub fn describe(self) -> &'static str {
        match self {
            Code::ConvChainMismatch => "conv channel chain broken (c_out ≠ next c_in)",
            Code::FcChainMismatch => "FC feature chain broken (f_out ≠ next f_in)",
            Code::FlattenMismatch => "first FC fan-in ≠ flattened conv output",
            Code::HeadWidthMismatch => "classifier head width ≠ class count",
            Code::PeVectorLength => "PE vector length ≠ compute-layer count",
            Code::SimdVectorLength => "SIMD vector length ≠ compute-layer count",
            Code::OddPoolExtent => "2×2 pool applied to an odd spatial extent",
            Code::SpatialUnderflow => "spatial extent shrinks below the kernel size",
            Code::PipelineStructure => "pipeline stage chain or ordering broken",
            Code::ZeroFolding => "folding factor (PE or SIMD) is zero",
            Code::PeNotDivisor => "PE count does not divide output neurons",
            Code::SimdNotDivisor => "SIMD width does not divide fan-in",
            Code::CycleBudgetExceeded => "stage cycles/frame exceeds the target-fps budget",
            Code::CycleOverflow => "cycle arithmetic overflows (degenerate dimensioning)",
            Code::FifoDeadlock => "zero-depth inter-stage FIFO deadlocks the handshake",
            Code::StageStarved => "rate imbalance: stage idles ≥ 15/16 of steady state",
            Code::BackpressureThroughput => "back-pressure degrades steady-state II",
            Code::ThresholdOutOfRange => "threshold outside accumulator bit-range",
            Code::DeadThresholdChannel => "threshold constant over the accumulator range",
            Code::MissingThresholds => "hidden stage missing its threshold bank",
            Code::ExtraThresholds => "logits stage carries an ignored threshold bank",
            Code::LutOverBudget => "LUT estimate exceeds device budget",
            Code::BramOverBudget => "BRAM18 estimate exceeds device budget",
            Code::DspOverBudget => "DSP estimate exceeds device budget",
            Code::NearBudget => "resource above 90 % of device budget",
            Code::InvalidConfig => "checker configuration invalid",
            Code::UnjustifiedOrdering => "atomic Ordering without a `// ordering:` justification",
            Code::UnsafeCode => "unsafe code in workspace source",
            Code::HotPathChannelUnwrap => "unwrap() on channel send/recv in a serving hot path",
            Code::UndocumentedMetric => "metric emitted in code but missing from README tables",
            Code::LintConfigError => "lint pass could not run as configured",
            Code::HotPathPanic => "panic site reachable from a hot-path root",
            Code::HotPathIndexing => "unchecked indexing reachable from a hot-path root",
            Code::HotPathDivision => "unchecked non-literal division on a hot path",
            Code::HotPathAllocation => "heap allocation reachable from a hot-path root",
            Code::HotPathBlocking => "blocking call reachable from a hot-path root",
            Code::HotPathNarrowingCast => "unjustified narrowing `as` cast on a hot path",
            Code::AuditConfigError => "audit pass could not run as configured",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl Serialize for Code {
    fn to_value(&self) -> Value {
        Value::Str(self.as_str().to_owned())
    }
}

impl Deserialize for Code {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let s = v
            .as_str()
            .ok_or_else(|| serde::Error::expected("string", "Code"))?;
        Code::from_str_code(s).ok_or_else(|| serde::Error::custom(format!("unknown code {s}")))
    }
}

/// How bad a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: worth knowing, never blocks.
    Info,
    /// Suspicious but deployable.
    Warning,
    /// The design is wrong; construction must be refused.
    Error,
}

impl Severity {
    /// Lower-case name (the JSON form).
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl Serialize for Severity {
    fn to_value(&self) -> Value {
        Value::Str(self.as_str().to_owned())
    }
}

impl Deserialize for Severity {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        match v.as_str() {
            Some("info") => Ok(Severity::Info),
            Some("warning") => Ok(Severity::Warning),
            Some("error") => Ok(Severity::Error),
            _ => Err(serde::Error::expected("info|warning|error", "Severity")),
        }
    }
}

/// One finding: a typed code, a severity, and source-location-style
/// context pointing into the architecture or pipeline description
/// (e.g. `CNV.convs[2].c_in` or `n-CNV.stage[4]`).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Stable `BCP0xx` code.
    pub code: Code,
    /// Finding severity.
    pub severity: Severity,
    /// Dotted path into the checked description.
    pub location: String,
    /// Human-readable explanation with the offending numbers.
    pub message: String,
    /// Optional fix suggestion.
    pub help: Option<String>,
}

impl Diagnostic {
    /// An error-severity finding.
    pub fn error(code: Code, location: impl Into<String>, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            location: location.into(),
            message: message.into(),
            help: None,
        }
    }

    /// A warning-severity finding.
    pub fn warning(code: Code, location: impl Into<String>, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            ..Diagnostic::error(code, location, message)
        }
    }

    /// An info-severity finding.
    pub fn info(code: Code, location: impl Into<String>, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Info,
            ..Diagnostic::error(code, location, message)
        }
    }

    /// Attach a fix suggestion.
    pub fn with_help(mut self, help: impl Into<String>) -> Self {
        self.help = Some(help.into());
        self
    }

    /// `rustc`-style one-liner: `error[BCP011] CNV.pe[1]: …`.
    pub fn render(&self) -> String {
        let mut s = format!(
            "{}[{}] {}: {}",
            self.severity, self.code, self.location, self.message
        );
        if let Some(h) = &self.help {
            s.push_str(&format!("\n  help: {h}"));
        }
        s
    }
}

/// The outcome of one `check_arch`/`check_pipeline` run: every finding,
/// plus the evaluated and target devices. Serializes to the machine-readable
/// JSON report `bcp check --json` emits.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// What was checked (arch or pipeline name).
    pub subject: String,
    /// Device the resource-fit analysis ran against.
    pub device: String,
    /// The design's paper target device (fit failures there are errors;
    /// elsewhere they degrade to warnings).
    pub target_device: String,
    /// All findings, in analysis order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// New empty report.
    pub fn new(
        subject: impl Into<String>,
        device: impl Into<String>,
        target_device: impl Into<String>,
    ) -> Self {
        Report {
            subject: subject.into(),
            device: device.into(),
            target_device: target_device.into(),
            diagnostics: Vec::new(),
        }
    }

    /// Append a finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// No error-severity findings: the design may be constructed.
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0
    }

    /// Error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.errors().count()
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// Whether any finding carries this code.
    pub fn has_code(&self, code: Code) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Human-readable multi-line report.
    pub fn render_text(&self) -> String {
        let mut s = format!(
            "check {} (device {}, target {}): ",
            self.subject, self.device, self.target_device
        );
        if self.diagnostics.is_empty() {
            s.push_str("clean\n");
            return s;
        }
        s.push_str(&format!(
            "{} error(s), {} warning(s)\n",
            self.error_count(),
            self.warning_count()
        ));
        for d in &self.diagnostics {
            s.push_str("  ");
            s.push_str(&d.render().replace('\n', "\n  "));
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::arithmetic_side_effects)]
    use super::*;

    #[test]
    fn codes_are_unique_and_parse_back() {
        let mut seen = std::collections::HashSet::new();
        for c in Code::ALL {
            assert!(seen.insert(c.as_str()), "duplicate code {c}");
            assert_eq!(Code::from_str_code(c.as_str()), Some(c));
            assert!(c.as_str().starts_with("BCP"));
            assert_eq!(c.as_str().len(), 6);
            assert!(!c.describe().is_empty());
        }
        assert_eq!(Code::from_str_code("BCP999"), None);
    }

    #[test]
    fn codes_are_numerically_ordered() {
        let nums: Vec<u32> = Code::ALL
            .iter()
            .map(|c| c.as_str()[3..].parse().unwrap())
            .collect();
        for w in nums.windows(2) {
            assert!(w[0] < w[1], "codes out of order: {} {}", w[0], w[1]);
        }
    }

    #[test]
    fn severity_orders_error_highest() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
    }

    #[test]
    fn report_roundtrips_through_serde_json() {
        let mut r = Report::new("CNV", "XC7Z020", "XC7Z020");
        r.push(
            Diagnostic::error(
                Code::PeNotDivisor,
                "CNV.pe[1]",
                "33 does not divide 64 rows",
            )
            .with_help("use a divisor of 64"),
        );
        r.push(Diagnostic::warning(
            Code::NearBudget,
            "CNV.resources.luts",
            "92% of budget",
        ));
        r.push(Diagnostic::info(Code::StageStarved, "CNV.stage[8]", "idle"));
        let json = serde_json::to_string(&r).unwrap();
        let back: Report = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
        // Stable code strings appear literally in the JSON.
        assert!(json.contains("\"BCP011\""));
        assert!(json.contains("\"BCP053\""));
        assert!(json.contains("\"error\""));
    }

    #[test]
    fn render_text_lists_findings() {
        let mut r = Report::new("x", "XC7Z010", "XC7Z010");
        assert!(r.render_text().contains("clean"));
        r.push(Diagnostic::error(Code::ZeroFolding, "x.pe[0]", "pe = 0"));
        let t = r.render_text();
        assert!(t.contains("error[BCP010]"));
        assert!(t.contains("1 error(s)"));
        assert!(!r.is_clean());
        assert!(r.has_code(Code::ZeroFolding));
        assert!(!r.has_code(Code::FifoDeadlock));
    }
}
