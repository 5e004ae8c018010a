//! The workloads: who the tenants are, how many users each has, when
//! they are admitted, and which recovery drills and injections they see.

use privshape_datasets::{generate_symbols_like, SymbolsLikeConfig, SYMBOLS_CLASSES};
use privshape_ldp::Epsilon;
use privshape_protocol::{BaselineConfig, LengthOracle, PrivShapeConfig, Session};
use privshape_timeseries::{SaxParams, TimeSeries};

/// Which mechanism a tenant runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mechanism {
    /// PrivShape (Algorithm 2).
    PrivShape,
    /// The trie-based baseline (Algorithm 1).
    Baseline,
}

/// One tenant session's configuration.
#[derive(Debug, Clone, Copy)]
pub struct Kind {
    /// Short name for logs.
    pub name: &'static str,
    /// Mechanism.
    pub mechanism: Mechanism,
    /// Classification-oriented (labeled) extraction.
    pub labeled: bool,
    /// Budget ε.
    pub eps: f64,
    /// Shapes to extract.
    pub k: usize,
    /// SAX segment length and alphabet.
    pub sax: (usize, usize),
    /// Length-round frequency oracle.
    pub oracle: LengthOracle,
    /// Clipping range of the compressed length.
    pub length_range: (usize, usize),
}

/// When a tenant's session is snapshotted, evicted and restored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drill {
    /// Never.
    Never,
    /// Once, after this round closes.
    AfterRound(u32),
}

/// One tenant of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Tenant {
    /// Session configuration.
    pub kind: Kind,
    /// Enrolled users.
    pub users: usize,
    /// Wave (round barrier) at which the session is admitted.
    pub admit_wave: u32,
    /// Recovery drill schedule.
    pub drill: Drill,
    /// Seed of the session's protocol randomness.
    pub seed: u64,
}

/// A workload: tenants plus the shared series pool they draw from.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Workload name.
    pub name: &'static str,
    /// Tenants, in admission order.
    pub tenants: Vec<Tenant>,
    /// Series in the generated pool; user `u` holds series `u % pool`.
    pub pool: usize,
    /// Length of each generated series.
    pub series_len: usize,
    /// Whether each wave replays one frame and corrupts one frame.
    pub inject: bool,
}

/// Users of session 0 enrolled through `UserClient::new` each iteration.
pub const ENROLL_SAMPLE: usize = 16;

/// Workload names, in the order the benchmark lists them.
pub const NAMES: [&str; 2] = ["deep-fleet", "tenant-churn"];

/// SplitMix64 finalizer, to derive independent seeds from the run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const fn kind(
    name: &'static str,
    mechanism: Mechanism,
    labeled: bool,
    eps: f64,
    k: usize,
    sax: (usize, usize),
    oracle: LengthOracle,
) -> Kind {
    Kind {
        name,
        mechanism,
        labeled,
        eps,
        k,
        sax,
        oracle,
        length_range: (1, 8),
    }
}

/// The eight tenant kinds of the multi-session service smoke test:
/// PrivShape and baseline, labeled and unlabeled, all four length
/// oracles, ε from 2 to 8 and k from 2 to 4.
const CHURN_KINDS: [Kind; 8] = {
    use LengthOracle::{Grr, Olh, Oue, Piecewise};
    use Mechanism::{Baseline, PrivShape};
    [
        kind("ps-grr", PrivShape, false, 4.0, 2, (25, 4), Grr),
        kind("ps-oue", PrivShape, false, 2.0, 3, (25, 3), Oue),
        kind("ps-olh", PrivShape, false, 8.0, 2, (20, 4), Olh),
        kind("ps-pw", PrivShape, false, 4.0, 4, (25, 4), Piecewise),
        kind("ps-lab-grr", PrivShape, true, 4.0, 2, (25, 4), Grr),
        kind("ps-lab-oue", PrivShape, true, 2.0, 3, (25, 3), Oue),
        kind("base-grr", Baseline, false, 4.0, 2, (25, 4), Grr),
        kind("base-lab-oue", Baseline, true, 4.0, 2, (25, 3), Oue),
    ]
};

/// The plan named `name`, with every seed derived from `seed`.
pub fn plan(name: &str, seed: u64) -> Option<Plan> {
    let tenant = |i: usize, kind: Kind, users: usize, admit_wave: u32, drill: Drill| Tenant {
        kind,
        users,
        admit_wave,
        drill,
        seed: mix(seed, 1 + i as u64),
    };
    let plan = match name {
        // Few large sessions over long series: device candidate scoring
        // dominates, and server rounds are few and large.
        "deep-fleet" => {
            let deep = Kind {
                name: "ps-deep",
                mechanism: Mechanism::PrivShape,
                labeled: false,
                eps: 4.0,
                k: 6,
                sax: (12, 6),
                oracle: LengthOracle::Grr,
                length_range: (1, 15),
            };
            Plan {
                name: "deep-fleet",
                tenants: (0..4)
                    .map(|i| tenant(i, deep, 60_000, 0, Drill::AfterRound(2)))
                    .collect(),
                pool: 6_000,
                series_len: 398,
                inject: false,
            }
        }
        // Many small sessions admitted in waves: per-round fixed costs
        // dominate server time.
        "tenant-churn" => Plan {
            name: "tenant-churn",
            tenants: (0..24)
                .map(|i| {
                    let drill = if i == 2 || i == 13 {
                        Drill::AfterRound(2)
                    } else {
                        Drill::Never
                    };
                    tenant(i, CHURN_KINDS[i % 8], 3_000, 2 * (i / 8) as u32, drill)
                })
                .collect(),
            pool: 3_000,
            series_len: 96,
            inject: true,
        },
        _ => return None,
    };
    Some(plan)
}

/// The generated series pool and its labels.
#[derive(Debug)]
pub struct Pool {
    /// Series; user `u` holds `series[u % len]`.
    pub series: Vec<TimeSeries>,
    /// Class label of each series.
    pub labels: Vec<usize>,
}

impl Pool {
    /// Generates the pool for `plan` from `seed`.
    pub fn generate(plan: &Plan, seed: u64) -> Self {
        let data = generate_symbols_like(&SymbolsLikeConfig {
            n_per_class: plan.pool.div_ceil(SYMBOLS_CLASSES),
            length: plan.series_len,
            seed: mix(seed, 0),
            ..Default::default()
        });
        let labels = data
            .labels()
            .expect("the Symbols-like generator labels every series")
            .to_vec();
        Self {
            series: data.series().to_vec(),
            labels,
        }
    }

    /// The series user `user` holds.
    pub fn series(&self, user: usize) -> &TimeSeries {
        &self.series[user % self.series.len()]
    }

    /// The label of user `user`.
    pub fn label(&self, user: usize) -> usize {
        self.labels[user % self.labels.len()]
    }
}

/// A fresh session for `tenant` over its enrolled users.
pub fn session(tenant: &Tenant) -> Session {
    let k = &tenant.kind;
    let eps = Epsilon::new(k.eps).expect("workload budgets are positive");
    let sax = SaxParams::new(k.sax.0, k.sax.1).expect("workload SAX parameters are valid");
    let n = tenant.users;
    let built = match k.mechanism {
        Mechanism::PrivShape => {
            let mut cfg = PrivShapeConfig::new(eps, k.k, sax);
            cfg.length_range = k.length_range;
            cfg.length_oracle = k.oracle;
            cfg.seed = tenant.seed;
            if k.labeled {
                Session::privshape_labeled(cfg, n, SYMBOLS_CLASSES)
            } else {
                Session::privshape(cfg, n)
            }
        }
        Mechanism::Baseline => {
            let mut cfg = BaselineConfig::new(eps, k.k, sax);
            cfg.length_range = k.length_range;
            cfg.length_oracle = k.oracle;
            cfg.seed = tenant.seed;
            if k.labeled {
                Session::baseline_labeled(cfg, n, SYMBOLS_CLASSES)
            } else {
                Session::baseline(cfg, n)
            }
        }
    };
    built.expect("workload session configurations are valid")
}
