//! Seeded input generation. Every workload input — task shapes, arrival
//! schedules, burst sizes and request windows — is a pure function of the
//! workload seed, so the same seed gives the same inputs and the program
//! receives only what is generated here.

use autocts::data::{DatasetProfile, Domain, ForecastSetting, ForecastTask};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Independent input streams drawn from one workload seed.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    /// Tasks searched by `ladder-search`.
    LadderTasks,
    /// Unseen tasks ranked by `zeroshot-rank`.
    UnseenTasks,
    /// Arrival times and burst sizes of the serve workloads.
    Arrivals,
    /// Which window each serve request carries.
    Windows,
}

fn rng(seed: u64, stream: Stream, index: u64) -> ChaCha8Rng {
    // splitmix64 finalizer over (seed, stream, index): nearby seeds and
    // indices land on unrelated ChaCha streams.
    let mut z = seed
        .wrapping_add((stream as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED69));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ChaCha8Rng::seed_from_u64(z ^ (z >> 31))
}

const DOMAINS: [Domain; 5] =
    [Domain::Traffic, Domain::Energy, Domain::Solar, Domain::Exchange, Domain::Demand];

/// `(P, Q)` forecasting settings tasks draw from.
const SETTINGS: [(usize, usize); 4] = [(4, 2), (6, 2), (6, 3), (8, 2)];

/// The recipe of one generated task. Series count, length, domain and
/// `P`/`Q` vary between tasks, so tensor shapes (and the buffer-pool size
/// classes they hit) vary too.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskSpec {
    /// Signal family.
    pub domain: Domain,
    /// Series count `N`.
    pub n: usize,
    /// Series length `T`.
    pub t: usize,
    /// History length `P`.
    pub p: usize,
    /// Horizon `Q`.
    pub q: usize,
    /// Spatial coupling strength.
    pub coupling: f32,
    /// Noise level.
    pub noise: f32,
    /// Value scale.
    pub scale: f32,
    /// Seed of the synthetic series.
    pub data_seed: u64,
}

impl TaskSpec {
    /// Task `index` of `stream` under `seed`.
    pub fn draw(seed: u64, stream: Stream, index: u64) -> Self {
        let mut r = rng(seed, stream, index);
        let (p, q) = SETTINGS[r.gen_range(0..SETTINGS.len())];
        Self {
            domain: DOMAINS[r.gen_range(0..DOMAINS.len())],
            n: r.gen_range(3..=6),
            t: r.gen_range(180..=300),
            p,
            q,
            coupling: r.gen_range(0.1..0.4),
            noise: r.gen_range(0.05..0.15),
            scale: r.gen_range(4.0..12.0),
            data_seed: r.gen(),
        }
    }

    /// Generates the series and wraps them in a multi-step task (60/20/20
    /// split, window stride 2).
    pub fn build(&self, name: &str) -> ForecastTask {
        let profile = DatasetProfile::custom(
            name,
            self.domain,
            self.n,
            self.t,
            24,
            self.coupling,
            self.noise,
            self.scale,
            self.data_seed,
        );
        ForecastTask::new(profile.generate(0), ForecastSetting::multi(self.p, self.q), 0.6, 0.2, 2)
    }
}

/// Poisson arrival times (seconds from the start) at `rate` per second over
/// `seconds`.
pub fn poisson_arrivals(seed: u64, rate: f64, seconds: f64) -> Vec<f64> {
    let mut r = rng(seed, Stream::Arrivals, 0);
    let mut t = 0.0;
    let mut out = Vec::with_capacity((rate * seconds * 1.2) as usize + 16);
    loop {
        t += -(1.0 - r.gen_range(0.0..1.0f64)).ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push(t);
    }
}

/// One burst of simultaneous requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Burst {
    /// Seconds from the start.
    pub at: f64,
    /// Requests sent together.
    pub size: usize,
}

/// Bursts arriving as a Poisson process at `rate` per second over
/// `seconds`, each of a uniform size in `sizes`.
pub fn bursts(
    seed: u64,
    rate: f64,
    seconds: f64,
    sizes: std::ops::RangeInclusive<usize>,
) -> Vec<Burst> {
    let mut r = rng(seed, Stream::Arrivals, 1);
    poisson_arrivals(seed, rate, seconds)
        .into_iter()
        .map(|at| Burst { at, size: r.gen_range(sizes.clone()) })
        .collect()
}

/// For each of `count` requests, which of `windows` candidate windows it
/// carries.
pub fn request_windows(seed: u64, count: usize, windows: usize) -> Vec<usize> {
    let mut r = rng(seed, Stream::Windows, 0);
    (0..count).map(|_| r.gen_range(0..windows)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Inputs {
        ladder: Vec<TaskSpec>,
        unseen: Vec<TaskSpec>,
        arrivals: Vec<f64>,
        bursts: Vec<Burst>,
        windows: Vec<usize>,
    }

    fn all_inputs(seed: u64) -> Inputs {
        Inputs {
            ladder: (0..16).map(|i| TaskSpec::draw(seed, Stream::LadderTasks, i)).collect(),
            unseen: (0..16).map(|i| TaskSpec::draw(seed, Stream::UnseenTasks, i)).collect(),
            arrivals: poisson_arrivals(seed, 400.0, 2.0),
            bursts: bursts(seed, 50.0, 2.0, 4..=24),
            windows: request_windows(seed, 500, 64),
        }
    }

    #[test]
    fn same_seed_gives_identical_inputs() {
        assert_eq!(all_inputs(7), all_inputs(7));
        let a = TaskSpec::draw(7, Stream::LadderTasks, 3).build("a");
        let b = TaskSpec::draw(7, Stream::LadderTasks, 3).build("a");
        assert_eq!(a.data.values(), b.data.values());
        assert_eq!(a.setting, b.setting);
    }

    #[test]
    fn different_seed_gives_different_inputs() {
        let (a, b) = (all_inputs(7), all_inputs(8));
        assert_ne!(a.ladder, b.ladder);
        assert_ne!(a.unseen, b.unseen);
        assert_ne!(a.arrivals, b.arrivals);
        assert_ne!(a.bursts, b.bursts);
        assert_ne!(a.windows, b.windows);
        // Streams of one seed are independent of each other too.
        assert_ne!(a.ladder, a.unseen);
    }

    #[test]
    fn schedules_match_their_rates_and_stay_in_range() {
        let arrivals = poisson_arrivals(3, 400.0, 10.0);
        assert!((3600..4400).contains(&arrivals.len()), "{}", arrivals.len());
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]) && arrivals[arrivals.len() - 1] < 10.0);
        assert!(bursts(3, 50.0, 10.0, 4..=24).iter().all(|b| (4..=24).contains(&b.size)));
        assert!(request_windows(3, 1000, 17).iter().all(|&w| w < 17));
        for i in 0..64 {
            let s = TaskSpec::draw(3, Stream::LadderTasks, i);
            assert!((3..=6).contains(&s.n) && (180..=300).contains(&s.t));
        }
    }
}
