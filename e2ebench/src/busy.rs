//! CPUs kept out of idle by idle-priority spinners.
//!
//! On a VM, a vCPU with nothing to run halts, and under host contention
//! waking it takes milliseconds. Every hand-off between threads (the request
//! generator, a lane worker and the collector; the caller and the rayon
//! threads it starts on every parallel call) then pays the hypervisor's
//! wake-up. Measured on a 2-vCPU VM, this moved `serve-steady`'s p50 between
//! 1.3 and 5 ms from run to run. A one-thread `zeroshot-rank` run with both
//! vCPUs kept busy drew 0.1 % host steal where a two-thread run without
//! spinners drew up to 12 %, and it held one p50 regime where one thread
//! beside an idle vCPU flipped between ~9 and ~14 ms.
//!
//! A spinner at `SCHED_IDLE` priority on a CPU keeps that vCPU running: the
//! guest scheduler preempts the spinner the moment a program thread becomes
//! runnable there, so a hand-off is a same-CPU context switch. Spinner CPU
//! time is left out of every CPU metric.

use crate::measure;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// `cpu_set_t` of glibc: 1024 bits.
type CpuSet = [u64; 16];

/// `SCHED_IDLE` on Linux.
const SCHED_IDLE: i32 = 5;

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

fn get_affinity() -> Option<CpuSet> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable `cpu_set_t`-sized buffer that outlives the
    // call; pid 0 is the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
    (rc >= 0).then_some(set)
}

fn set_affinity(mask: &CpuSet) -> bool {
    // SAFETY: `mask` points to a live `cpu_set_t`-sized buffer for the whole
    // call; pid 0 is the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask.as_ptr()) == 0 }
}

fn cpus(set: &CpuSet) -> Vec<usize> {
    (0..set.len() * 64).filter(|&c| set[c / 64] >> (c % 64) & 1 == 1).collect()
}

fn only(cpu: usize) -> CpuSet {
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    one
}

/// While alive, idle-priority spinners keep CPUs busy. Dropping it stops and
/// joins every spinner and restores the calling thread's CPU set.
pub struct BusyCpus {
    saved: Option<CpuSet>,
    stop: Arc<AtomicBool>,
    spinners: Vec<JoinHandle<()>>,
}

impl BusyCpus {
    /// Confines the calling thread — and every thread it starts — to the
    /// first CPU it may use and keeps that CPU busy; the other CPUs stay idle
    /// and draw no steal. `None` when the CPU set cannot be read or changed
    /// (the run then goes unconfined).
    pub fn confined() -> Option<Self> {
        let saved = get_affinity()?;
        let cpu = *cpus(&saved).first()?;
        if !set_affinity(&only(cpu)) {
            return None;
        }
        let mut busy = Self { saved: Some(saved), stop: Arc::default(), spinners: Vec::new() };
        busy.spin_on(cpu);
        Some(busy)
    }

    /// Keeps every CPU the calling thread may use busy, leaving where the
    /// program's threads run to the scheduler. `None` when the CPU set
    /// cannot be read.
    pub fn all() -> Option<Self> {
        let set = get_affinity()?;
        let mut busy = Self { saved: None, stop: Arc::default(), spinners: Vec::new() };
        for cpu in cpus(&set) {
            busy.spin_on(cpu);
        }
        Some(busy)
    }

    fn spin_on(&mut self, cpu: usize) {
        let stop = Arc::clone(&self.stop);
        self.spinners.push(std::thread::spawn(move || {
            let param = SchedParam { sched_priority: 0 };
            // SAFETY: `param` is a valid `struct sched_param` for the call;
            // pid 0 is this thread.
            if !set_affinity(&only(cpu))
                || unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } != 0
            {
                return; // unpinned or at normal priority it would compete with the program
            }
            measure::excluded_from_cpu_time(|| {
                while !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            });
        }));
    }
}

impl Drop for BusyCpus {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for h in self.spinners.drain(..) {
            let _ = h.join();
        }
        if let Some(saved) = &self.saved {
            set_affinity(saved);
        }
    }
}
