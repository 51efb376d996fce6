//! CPU-time clocks. They count only the time a thread (or the whole
//! process) ran, so time the hypervisor gave to other guests — steal,
//! which Linux subtracts from task run time on KVM guests — does not
//! inflate them the way it inflates wall time.

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn read(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` for the whole call,
    // and `clock` is one of the two clock ids defined above.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds the calling thread has run.
pub fn thread_s() -> f64 {
    read(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU seconds all threads of this process have run.
pub fn process_s() -> f64 {
    read(CLOCK_PROCESS_CPUTIME_ID)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work_and_not_with_sleep() {
        let (t0, p0) = (thread_s(), process_s());
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let (t1, p1) = (thread_s(), process_s());
        assert!(
            t1 > t0 && p1 >= p0 + (t1 - t0) * 0.99,
            "{t0} {t1} {p0} {p1}"
        );
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(thread_s() - t1 < 0.02, "sleeping used no CPU");
    }
}
