//! Runs one benchmark leg and records its host cost.
//!
//! ```text
//! perfbench-launch <result.json> <program> [args...]
//! ```
//!
//! Spawns `program` with the launcher's stdin/stdout/stderr, waits for it,
//! and writes `{"wall_s", "user_s", "sys_s", "maxrss_kb", "code"}` to
//! `result.json`. The launcher exists because a child's `ru_maxrss` starts
//! from the high-water mark of the process that spawned it: spawned
//! straight from the benchmark's Python script (`run.py`), every leg would
//! report at least that script's own resident set. This launcher's is about 2 MB,
//! below any leg's.

use std::process::{Command, ExitCode};
use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench-launch reads struct rusage with the 64-bit Linux layout");

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    _rest: [i64; 13],
}

const RUSAGE_CHILDREN: i32 = -1;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Resource use of every waited-for child (here exactly one).
fn children_usage() -> Option<Rusage> {
    let mut usage = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_maxrss: 0,
        _rest: [0; 13],
    };
    // SAFETY: `usage` is a valid, writable `struct rusage` with the 64-bit
    // Linux layout (checked by the `compile_error!` gate above), and
    // getrusage writes nothing beyond it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    (rc == 0).then_some(usage)
}

fn seconds(t: &Timeval) -> f64 {
    t.tv_sec as f64 + t.tv_usec as f64 * 1e-6
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [result_path, program, rest @ ..] = args.as_slice() else {
        eprintln!("usage: perfbench-launch <result.json> <program> [args...]");
        return ExitCode::FAILURE;
    };
    let started = Instant::now();
    let status = match Command::new(program).args(rest).status() {
        Ok(status) => status,
        Err(e) => {
            eprintln!("perfbench-launch: cannot run {program}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let wall = started.elapsed().as_secs_f64();
    let Some(usage) = children_usage() else {
        eprintln!("perfbench-launch: getrusage failed");
        return ExitCode::FAILURE;
    };
    // A child killed by a signal has no exit code; report it as -1.
    let code = status.code().unwrap_or(-1);
    let result = format!(
        "{{\"wall_s\":{wall},\"user_s\":{},\"sys_s\":{},\"maxrss_kb\":{},\"code\":{code}}}\n",
        seconds(&usage.ru_utime),
        seconds(&usage.ru_stime),
        usage.ru_maxrss,
    );
    if let Err(e) = std::fs::write(result_path, result) {
        eprintln!("perfbench-launch: cannot write {result_path}: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
