//! CPU affinity of the calling thread.

use std::io;

/// `cpu_set_t`: a 1024-bit mask.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs the calling thread may run on, in ascending order.
pub fn allowed() -> io::Result<Vec<usize>> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a writable, initialised `cpu_set_t` of the size
    // passed, alive for the whole call; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) } != 0 {
        return Err(io::Error::last_os_error());
    }
    let cpus: Vec<usize> = (0..mask.len() * 64)
        .filter(|cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect();
    if cpus.is_empty() {
        return Err(io::Error::other("empty CPU affinity mask"));
    }
    Ok(cpus)
}

/// Pins the calling thread, and every thread it starts afterwards, to
/// `cpu`.
pub fn pin(cpu: usize) -> io::Result<()> {
    let mut one: CpuSet = [0; 16];
    let word = one
        .get_mut(cpu / 64)
        .ok_or_else(|| io::Error::other(format!("no CPU {cpu} in a cpu_set_t")))?;
    *word = 1 << (cpu % 64);
    // SAFETY: `one` is an initialised `cpu_set_t` of the size passed,
    // read only; pid 0 is the calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}
