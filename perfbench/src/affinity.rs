//! CPU affinity of the live runs' threads: each server tag owns one CPU
//! of the process's allowed set, so that the two tags behave as two
//! servers and the scheduler does not move instances between them.

/// Bytes of a `cpu_set_t` (1024 CPUs).
const SET_BYTES: usize = 128;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
}

/// The CPUs the calling thread may run on, ascending (empty if the
/// call fails).
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u8; SET_BYTES];
    // SAFETY: `mask` is a writable buffer of `SET_BYTES` bytes.
    if unsafe { sched_getaffinity(0, SET_BYTES, mask.as_mut_ptr()) } != 0 {
        return Vec::new();
    }
    (0..SET_BYTES * 8)
        .filter(|&cpu| mask[cpu / 8] >> (cpu % 8) & 1 == 1)
        .collect()
}

/// Pins the calling thread to `cpu`; returns whether that worked.
pub fn pin(cpu: usize) -> bool {
    let mut mask = [0u8; SET_BYTES];
    if cpu >= SET_BYTES * 8 {
        return false;
    }
    mask[cpu / 8] |= 1 << (cpu % 8);
    // SAFETY: `mask` is a readable buffer of `SET_BYTES` bytes.
    unsafe { sched_setaffinity(0, SET_BYTES, mask.as_ptr()) == 0 }
}
