//! Run isolation: a faulted search and the clean golden search run at the
//! same time in one process. Each run's fault plan and recorder reach its
//! own worker threads and no other run's, so the clean run still matches its
//! golden fixture byte for byte and only the faulted run sees quarantines.

use autocts::fault::{FaultPlan, FaultScope};
use autocts::prelude::*;
use autocts::search::{autocts_plus_search_with_pool, AutoCtsPlusConfig};
use octs_obs::{ObsScope, Recorder};
use octs_testkit::golden::{capture_autocts_plus, check_against_fixture};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};

#[test]
fn faulted_run_does_not_reach_a_concurrent_clean_run() {
    let barrier = Arc::new(Barrier::new(2));
    let faulted = {
        let barrier = Arc::clone(&barrier);
        std::thread::spawn(move || {
            let p = DatasetProfile::custom("iso", Domain::Traffic, 4, 220, 24, 0.3, 0.1, 10.0, 31);
            let task = ForecastTask::new(p.generate(0), ForecastSetting::multi(4, 2), 0.6, 0.2, 2);
            let space = JointSpace::tiny();
            let cfg = AutoCtsPlusConfig::test();
            let pool = space.sample_distinct(8, &mut ChaCha8Rng::seed_from_u64(cfg.seed));
            let recorder = Recorder::new();
            let _obs = ObsScope::activate(&recorder);
            let _faults = FaultScope::activate(FaultPlan::seeded(0xFA17, 8, 1, 1, &[], &[]));
            barrier.wait();
            let outcome = autocts_plus_search_with_pool(&task, &space, &cfg, pool).unwrap();
            (outcome.quarantined.len(), recorder.summary())
        })
    };
    barrier.wait();
    let clean = capture_autocts_plus();
    let (quarantined, faulted) = faulted.join().unwrap();

    let fixture =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/autocts_plus.json");
    if let Err(diff) = check_against_fixture(&fixture, &clean) {
        panic!("{diff}");
    }
    let golden = std::fs::read_to_string(&fixture).unwrap();
    assert_eq!(serde_json::to_string(&clean).unwrap(), golden.trim_end(), "byte identity");
    assert_eq!(clean.counters.get("search.quarantined"), Some(&0));

    assert_eq!(quarantined, 2, "one NaN-loss and one panicking candidate");
    assert_eq!(faulted.counter("search.quarantined"), 2);
    assert_eq!(faulted.events.get("label.quarantine"), Some(&2));
}
