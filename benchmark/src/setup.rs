//! The fixed set-up shared by every workload: an untrained but deployable
//! network, a seeded frame pool, and the oracle's expected labels.

use bcp_dataset::{Dataset, GeneratorConfig, MaskClass};
use bcp_finn::data::QuantMap;
use bcp_gateway::{Gateway, GatewayConfig, TenantPolicy};
use bcp_nn::{Mode, Sequential};
use bcp_serve::{canary_frame, Engine, ServeConfig};
use bcp_tensor::{Shape, Tensor};
use binarycop::arch::{Arch, ArchKind};
use binarycop::model::build_bnn;
use binarycop::recipe::tiny_arch;
use binarycop::reference::IntegerReference;
use binarycop::BinaryCoP;

/// Frames in the pool.
pub const POOL: usize = 64;
/// Face crops per crowd frame, and tickets a crowd client keeps in flight.
pub const CROWD: usize = 8;
/// Deadline budget sent with every gateway request; far above any latency
/// seen, so no request expires.
pub const DEADLINE_MS: u32 = 2_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    GateCnv,
    CrowdNcnv,
    EngineTiny,
    GatewayTiny,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::GateCnv,
        Workload::CrowdNcnv,
        Workload::EngineTiny,
        Workload::GatewayTiny,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::GateCnv => "gate_cnv",
            Workload::CrowdNcnv => "crowd_ncnv",
            Workload::EngineTiny => "engine_tiny",
            Workload::GatewayTiny => "gateway_tiny",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn arch(self) -> Arch {
        match self {
            Workload::GateCnv => ArchKind::Cnv.arch(),
            Workload::CrowdNcnv => ArchKind::NCnv.arch(),
            Workload::EngineTiny | Workload::GatewayTiny => tiny_arch(),
        }
    }

    /// Frames the pipeline sees per call on this workload: `None` is the
    /// single-frame path (`Stage::process`), `Some(b)` the blocked path
    /// (`process_batch`) with `b` frames. A lone gateway request reaches
    /// its shard's worker as a batch of one.
    pub fn block(self) -> Option<usize> {
        match self {
            Workload::GateCnv => None,
            Workload::CrowdNcnv | Workload::EngineTiny => Some(CROWD),
            Workload::GatewayTiny => Some(1),
        }
    }

    /// Client threads and tickets each keeps in flight when this
    /// workload's load pattern is applied to an engine.
    pub fn engine_load(self) -> (usize, usize) {
        match self {
            Workload::GateCnv | Workload::GatewayTiny => (1, 1),
            Workload::CrowdNcnv => (1, CROWD),
            Workload::EngineTiny => (2, CROWD),
        }
    }

    /// Connections when this workload's load pattern is applied to the
    /// gateway (one request in flight each). Never more than 2: the host
    /// has two cores and the program under test needs them too.
    pub fn connections(self) -> usize {
        match self {
            Workload::GateCnv | Workload::CrowdNcnv => 1,
            Workload::EngineTiny | Workload::GatewayTiny => 2,
        }
    }
}

/// Everything a workload reads, a function of `--seed`.
pub struct Fixture {
    pub workload: Workload,
    pub predictor: BinaryCoP,
    pub frames: Vec<Tensor>,
    /// `IntegerReference`'s class for each pool frame; empty until
    /// [`Fixture::label`] has run.
    pub expected: Vec<MaskClass>,
}

impl Fixture {
    /// The program's own set-up, which `setup_s` times: build the network,
    /// deploy it, render the frame pool. Also returns the float network,
    /// for the oracle to read.
    pub fn build(workload: Workload, seed: u64) -> (Fixture, Sequential) {
        let arch = workload.arch();
        let s = arch.input_size;
        // One training-mode forward gives batch-norm its statistics; the
        // arithmetic measured does not depend on the weights.
        let mut net = build_bnn(&arch, seed);
        let x = bcp_tensor::init::uniform(Shape::nchw(2, 3, s, s), -1.0, 1.0, seed ^ 0xB17);
        let _ = net.forward(&x, Mode::Train);
        let predictor = BinaryCoP::from_trained(&net, &arch);
        let gen = GeneratorConfig {
            img_size: s,
            supersample: 2,
        };
        let ds = Dataset::generate_balanced(&gen, POOL / 4, seed);
        let fx = Fixture {
            workload,
            predictor,
            frames: (0..POOL).map(|i| ds.image(i)).collect(),
            expected: Vec::new(),
        };
        (fx, net)
    }

    /// The benchmark's own set-up, not timed: the independent oracle's
    /// class for every pool frame. Its dense loops take 70 ms a frame on
    /// CNV, fifty times the program's whole set-up, so inside `setup_s`
    /// they would hide any work a change moved there.
    pub fn label(&mut self, net: &Sequential) {
        let arch = self.predictor.arch();
        let oracle = IntegerReference::from_network(net, arch);
        let s = arch.input_size;
        self.expected = self
            .frames
            .iter()
            .map(|f| {
                let q = QuantMap::from_unit_floats(3, s, s, f.as_slice());
                MaskClass::from_label(oracle.classify(&q))
            })
            .collect();
    }

    /// The engine of `engine_tiny`: one worker, default configuration.
    pub fn engine(&self, trace: Option<bcp_trace::TraceConfig>) -> Engine {
        let cfg = ServeConfig {
            trace,
            ..ServeConfig::default()
        };
        binarycop::serve::engine(&self.predictor, 1, cfg)
    }

    /// The gateway of `gateway_tiny`: 2 shards × 1 guarded worker on
    /// loopback, admission limits far above the offered load, and one
    /// tenant per connection chosen so that their affinity shards differ.
    pub fn gateway(&self) -> (Gateway, [u32; 2]) {
        let specs = binarycop::gateway::shard_specs(&self.predictor, 2, 1, ServeConfig::default());
        let s = self.predictor.arch().input_size;
        let cfg = GatewayConfig {
            tenant_policy: TenantPolicy {
                rate_per_s: 1_000_000,
                burst: 1_000_000,
                quota: None,
            },
            probe_frame: Some(canary_frame(3, s, s)),
            ..GatewayConfig::default()
        };
        let gateway = Gateway::start(specs, cfg, None).expect("bind a loopback port");
        let affinity = |t: u32| gateway.router().preference(t)[0];
        let other = (2u32..)
            .find(|&t| affinity(t) != affinity(1))
            .expect("two shards, so some tenant prefers the other one");
        (gateway, [1, other])
    }
}

/// The program under test, started and ready for its first request.
pub enum Running {
    Direct,
    Engine(Engine),
    Gateway(Gateway, [u32; 2]),
}

impl Running {
    pub fn start(fx: &Fixture) -> Running {
        match fx.workload {
            Workload::GateCnv | Workload::CrowdNcnv => Running::Direct,
            Workload::EngineTiny => Running::Engine(fx.engine(None)),
            Workload::GatewayTiny => {
                let (gateway, tenants) = fx.gateway();
                Running::Gateway(gateway, tenants)
            }
        }
    }

    pub fn stop(self) {
        match self {
            Running::Direct => {}
            Running::Engine(engine) => engine.shutdown(),
            Running::Gateway(gateway, _) => gateway.shutdown(),
        }
    }
}
