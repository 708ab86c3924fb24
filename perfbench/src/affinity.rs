//! Pins the benchmark, and every thread and process it starts later, to
//! one CPU.

/// Bytes in a `cpu_set_t` (1024 CPUs).
const CPU_SET_BYTES: usize = 128;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u8) -> i32;
}

/// Restricts the calling thread to the highest-numbered CPU it may run
/// on and returns that CPU. Threads and child processes created
/// afterwards inherit the restriction, so call this before starting any.
///
/// # Errors
///
/// The kernel refused to read or set the affinity mask.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut allowed = [0u8; CPU_SET_BYTES];
    // SAFETY: `allowed` is a writable buffer of exactly the length passed,
    // laid out as a `cpu_set_t` bitmask; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, allowed.len(), allowed.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..CPU_SET_BYTES * 8)
        .rev()
        .find(|&c| allowed[c / 8] & (1 << (c % 8)) != 0)
        .ok_or("the CPU affinity mask is empty")?;
    let mut one = [0u8; CPU_SET_BYTES];
    one[cpu / 8] = 1 << (cpu % 8);
    // SAFETY: `one` is a readable buffer of exactly the length passed, laid
    // out as a `cpu_set_t` bitmask; pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, one.len(), one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pinned_thread_sees_one_cpu() {
        std::thread::spawn(|| {
            let cpu = pin_to_one_cpu().expect("pinning is allowed");
            assert_eq!(
                std::thread::available_parallelism().map(|n| n.get()).ok(),
                Some(1)
            );
            assert_eq!(
                pin_to_one_cpu(),
                Ok(cpu),
                "pinning again keeps the same CPU"
            );
        })
        .join()
        .expect("the pinned thread ran");
    }
}
