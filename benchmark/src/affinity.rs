//! Running a closure with the process confined to one CPU.
//!
//! The service workloads need it. On the two-CPU sandbox the scheduler
//! sometimes leaves the generator and the server's shard on different CPUs
//! for a whole run, and every hand-off between them then pays a cross-CPU
//! wake-up of a halted virtual CPU: between identical runs of `svc_paced_g4`
//! p50 read 136 µs (same CPU) or 305 µs (different CPUs), steady within each
//! run. One CPU makes every run the first kind. Threads inherit the mask of
//! the thread that spawns them, so confining this thread before the server
//! starts confines the server's threads as well.

use std::io;

/// The kernel's `cpu_set_t`: one bit per CPU, 1024 CPUs.
#[repr(C)]
#[derive(Clone, Copy)]
struct CpuSet([u64; 16]);

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

fn get() -> io::Result<CpuSet> {
    let mut set = CpuSet([0; 16]);
    // SAFETY: `set` is a live, writable `cpu_set_t`-sized buffer and the
    // size passed is its size; pid 0 means the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc == 0 {
        Ok(set)
    } else {
        Err(io::Error::last_os_error())
    }
}

fn set(set: &CpuSet) -> io::Result<()> {
    // SAFETY: `set` points to a live `cpu_set_t`-sized buffer and the size
    // passed is its size; pid 0 means the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Run `f` with this thread, and every thread spawned inside `f`, confined to
/// the lowest-numbered CPU this thread is allowed on; restore the mask
/// afterwards. If the kernel refuses, `f` runs unconfined and the run says so.
pub fn on_one_cpu<T>(f: impl FnOnce() -> T) -> T {
    let confined = get().and_then(|allowed| {
        let word = allowed
            .0
            .iter()
            .position(|w| *w != 0)
            .ok_or_else(|| io::Error::other("empty affinity mask"))?;
        let mut one = CpuSet([0; 16]);
        one.0[word] = allowed.0[word] & allowed.0[word].wrapping_neg();
        set(&one).map(|()| allowed)
    });
    match confined {
        Ok(allowed) => {
            let result = f();
            if let Err(e) = set(&allowed) {
                println!("# could not restore the CPU mask: {e}");
            }
            result
        }
        Err(e) => {
            println!("# could not confine the process to one CPU ({e}); latencies may be bimodal");
            f()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confines_spawned_threads_and_restores_the_mask() {
        let before = get().expect("getaffinity").0;
        let inside = on_one_cpu(|| {
            std::thread::spawn(|| get().expect("getaffinity").0)
                .join()
                .expect("thread")
        });
        assert_eq!(inside.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
        assert_eq!(get().expect("getaffinity").0, before);
    }
}
