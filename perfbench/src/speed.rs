//! The machine's speed at the moment of each wait, and the waits scaled to
//! a fixed reference speed.
//!
//! The reference box is a 2-vCPU share of a host whose other tenants slow
//! it down: by up to 1.7× for a single wait, and by up to 1.5× for whole
//! runs. A benchmark run cannot average over the slow stretches that last
//! minutes, so the same build read 1.5× slower from one run to the next.
//! A probe — a fixed kernel of the benchmark's own code (sort, hash map,
//! B-tree, number formatting and parsing), sharing nothing with the program
//! — therefore runs right before and right after every timed wait. The wait
//! is scaled by [`REFERENCE_MS`] over the mean of the two probe times: it
//! reads as it would at the speed at which the probe takes
//! [`REFERENCE_MS`]. A change to the program leaves the probe as it was, so
//! it moves the scaled times by as much as it moves the raw ones.
//!
//! A run pins itself, and every thread it starts, to the one CPU it
//! started on ([`pin_to_current_cpu`]), so that the probe measures the CPU
//! that does the work. Unpinned, the ratio of `http-fleet-churn`'s round
//! time to the probe's time moved by 1.5× between sets of runs while it
//! held on the single-threaded `oracle-small`: the two vCPUs are likely
//! slowed unlike, and the server's workers could run on one while the
//! client, which runs the probe, ran on the other. One closed-loop client
//! meets the server one request at a time, so the work was serial already.

use std::cell::RefCell;
use std::fmt::Write;
use std::hint::black_box;
use std::time::Instant;

use crate::trace::ms;

/// The probe's time, in milliseconds, on the reference box at its usual
/// speed (a 2-vCPU x86-64 Xeon guest). Scaled times are given at this
/// speed, so they read close to the raw times of an undisturbed run.
pub const REFERENCE_MS: f64 = 10.0;

/// Values the probe sorts, hashes, prints and parses.
const PROBE_VALUES: usize = 80_000;
/// Slots of the probe's hash table: a power of two above twice the values.
const PROBE_SLOTS: usize = 1 << 18;

/// The probe's buffers, allocated once so that the probe never calls the
/// allocator, whose state the program's own allocations would change.
struct Buffers {
    values: Vec<u64>,
    slots: Vec<u64>,
    text: String,
}

thread_local! {
    static BUFFERS: RefCell<Buffers> = RefCell::new(Buffers {
        values: Vec::with_capacity(PROBE_VALUES),
        slots: vec![0; PROBE_SLOTS],
        text: String::with_capacity(PROBE_VALUES * 21),
    });
}

/// Runs the probe once and returns its wall time in milliseconds. The
/// work is the same on every call: sort 80 000 pseudo-random integers,
/// insert them into an open-addressing hash table of 2 MB and look each up,
/// then print them as text and parse them back.
pub fn probe_ms() -> f64 {
    BUFFERS.with(|buffers| {
        let b = &mut *buffers.borrow_mut();
        let start = Instant::now();
        let mut state = 0x5eed_u64;
        b.values.clear();
        b.values
            .extend((0..PROBE_VALUES).map(|_| crate::splitmix64(&mut state) | 1));
        b.values.sort_unstable();
        b.slots.fill(0);
        let mask = PROBE_SLOTS - 1;
        let slot_of = |v: u64| (v.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) as usize & mask;
        for &v in &b.values {
            let mut i = slot_of(v);
            while b.slots[i] != 0 {
                i = (i + 1) & mask;
            }
            b.slots[i] = v;
        }
        let mut found = 0u64;
        for &v in &b.values {
            let mut i = slot_of(v);
            while b.slots[i] != v {
                i = (i + 1) & mask;
            }
            found = found.wrapping_add(i as u64);
        }
        b.text.clear();
        for &v in &b.values {
            let _ = write!(b.text, "{v},");
        }
        let parsed = b
            .text
            .split(',')
            .filter_map(|field| field.parse::<u64>().ok())
            .fold(0u64, u64::wrapping_add);
        black_box((found, parsed));
        ms(start.elapsed())
    })
}

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, set_size: usize, set: *const u64) -> i32;
}

/// Restricts this thread, and every thread it starts from now on, to the
/// CPU it runs on. Returns that CPU, or `None` where it cannot be pinned.
pub fn pin_to_current_cpu() -> Option<usize> {
    // A `cpu_set_t` of glibc: 1024 bits.
    let mut set = [0u64; 16];
    // SAFETY: `sched_getcpu` takes no arguments and only reads the CPU
    // number; `sched_setaffinity` reads `size_of_val(&set)` bytes from a
    // live array, and pid 0 names the calling thread.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    *set.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    let pinned = unsafe { sched_setaffinity(0, std::mem::size_of_val(&set), set.as_ptr()) };
    (pinned == 0).then_some(cpu)
}

/// `raw_ms` at the reference speed, from the probe times right before and
/// right after it.
pub fn scaled(raw_ms: f64, before_ms: f64, after_ms: f64) -> f64 {
    raw_ms * REFERENCE_MS / ((before_ms + after_ms) / 2.0)
}

/// Times `f` between two probes: its result, and its wall time in
/// milliseconds at the reference speed.
pub fn time_scaled<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let before = probe_ms();
    let start = Instant::now();
    let value = f();
    let raw_ms = ms(start.elapsed());
    (value, scaled(raw_ms, before, probe_ms()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wait_is_scaled_by_the_mean_of_its_two_probes() {
        // Probes at 1.5× the reference time: the machine ran 1.5× slower.
        let slow = 1.5 * REFERENCE_MS;
        assert!((scaled(30.0, slow, slow) - 20.0).abs() < 1e-9);
        // The speed changed during the wait: the mean of both probes.
        assert!((scaled(30.0, REFERENCE_MS, 2.0 * REFERENCE_MS) - 20.0).abs() < 1e-9);
        assert_eq!(scaled(7.0, REFERENCE_MS, REFERENCE_MS), 7.0);
    }

    #[test]
    fn pinning_keeps_the_thread_on_its_cpu() {
        // In a thread of its own, so the test harness's threads stay free.
        let cpus = std::thread::spawn(|| {
            let pinned = pin_to_current_cpu().expect("pins on Linux");
            let now = unsafe { sched_getcpu() };
            (pinned, usize::try_from(now).unwrap())
        })
        .join()
        .unwrap();
        assert_eq!(cpus.0, cpus.1);
    }

    #[test]
    fn the_probe_takes_time_and_time_scaled_passes_the_result_on() {
        assert!(probe_ms() > 0.0);
        let (value, t) = time_scaled(|| 41 + 1);
        assert_eq!(value, 42);
        assert!(t >= 0.0);
    }
}
