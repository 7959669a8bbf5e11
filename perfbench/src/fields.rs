//! The two field workloads: `large_field` (a 100 000-node static field)
//! and `mobile_field` (a 5 000-node field with random-waypoint mobility
//! and the SINR PHY), both DRTS-DCTS at θ = 30° on the classic engine.

use dirca_mac::Scheme;
use dirca_net::{MobilityModel, SimConfig, SinrPhy};
use dirca_sim::rng::derive_seed;
use dirca_sim::SimDuration;
use dirca_topology::{poisson_field_pinned, Topology};

/// Which field workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Field {
    /// 100 000 static nodes: a large set-up and deep event queues.
    Large,
    /// 5 000 moving nodes under the SINR PHY: the coverage plan is
    /// rewritten every position epoch.
    Mobile,
}

/// Position epoch of the mobile field.
pub const MOBILITY_EPOCH: SimDuration = SimDuration::from_millis(10);

/// Salts that turn the benchmark seed into the field's input streams.
const TOPOLOGY_SALT: u64 = 0xF1E1_D700;
const RUN_SALT: u64 = 0xF1E1_D701;

/// A field workload's inputs, a pure function of the benchmark seed.
#[derive(Debug, Clone)]
pub struct FieldInput {
    /// Nodes in the field.
    pub nodes: usize,
    /// Seed of `poisson_field_pinned`.
    pub topology_seed: u64,
    /// The simulation configuration.
    pub config: SimConfig,
}

impl FieldInput {
    /// The inputs of `field` for benchmark seed `seed`.
    pub fn new(field: Field, seed: u64) -> FieldInput {
        let (nodes, warmup, measure) = match field {
            Field::Large => (
                100_000,
                SimDuration::from_millis(2),
                SimDuration::from_millis(8),
            ),
            Field::Mobile => (
                5_000,
                SimDuration::from_millis(20),
                SimDuration::from_millis(180),
            ),
        };
        let mut config = SimConfig::new(Scheme::DrtsDcts)
            .with_beamwidth_degrees(30.0)
            .with_seed(derive_seed(seed, RUN_SALT))
            .with_warmup(warmup)
            .with_measure(measure);
        if field == Field::Mobile {
            config = config
                .with_mobility(
                    MobilityModel::RandomWaypoint {
                        speed_min: 0.1,
                        speed_max: 0.5,
                        pause_secs: 0.0,
                    },
                    MOBILITY_EPOCH,
                )
                .with_sinr(SinrPhy::ideal().with_side_floor(0.05).with_margin(0.1));
        }
        FieldInput {
            nodes,
            topology_seed: derive_seed(seed, TOPOLOGY_SALT),
            config,
        }
    }

    /// Generates the field: mean degree 8 at range 1.
    pub fn topology(&self) -> Topology {
        poisson_field_pinned(self.topology_seed, self.nodes, 8.0, 1.0)
    }
}
