//! Run a child process to completion and collect its wall time, CPU time
//! and peak resident set, std-only: `wait4(2)` through an `extern "C"`
//! declaration (std already links libc).

use std::fs::File;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn waitid(idtype: u32, id: u32, info: *mut [u8; 128], options: i32) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGKILL: i32 = 9;
const P_PID: u32 = 1;
const WEXITED: i32 = 4;
const WNOWAIT: i32 = 0x0100_0000;

/// What one child run cost and how it ended.
pub struct ChildRun {
    /// Exit code; `None` when a signal ended the child (a crash, an OOM
    /// kill, or the time limit).
    pub exit: Option<i32>,
    pub timed_out: bool,
    pub wall_s: f64,
    /// User + system CPU time.
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    pub stdout: String,
    pub stderr: String,
}

/// Run `program args` from the current directory, with stdout and stderr
/// captured through files in `work` (no pipe can fill and stall the child),
/// killing it after `limit`.
pub fn run(
    program: &Path,
    args: &[String],
    work: &Path,
    limit: Duration,
) -> Result<ChildRun, String> {
    let out_path = work.join("child.stdout");
    let err_path = work.join("child.stderr");
    let out = File::create(&out_path).map_err(|e| format!("{}: {e}", out_path.display()))?;
    let err = File::create(&err_path).map_err(|e| format!("{}: {e}", err_path.display()))?;
    let start = Instant::now();
    let child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(err)
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", program.display()))?;
    let pid = child.id() as i32;
    // The watchdog kills the child once `limit` passes without a word from
    // this thread. The child is only reaped after the watchdog has ended,
    // so the pid it may kill is always this child's (at worst a zombie).
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || {
        if done_rx.recv_timeout(limit) == Err(mpsc::RecvTimeoutError::Timeout) {
            // SAFETY: `kill` has no memory-safety preconditions, and `pid`
            // is not reaped yet (see above).
            unsafe { kill(pid, SIGKILL) };
            true
        } else {
            false
        }
    });
    let exited = retry_eintr(|| {
        let mut info = [0u8; 128];
        // SAFETY: `info` is a writable buffer of `sizeof(siginfo_t)`.
        unsafe { waitid(P_PID, pid as u32, &mut info, WEXITED | WNOWAIT) }
    });
    let wall_s = start.elapsed().as_secs_f64();
    let _ = done_tx.send(());
    let timed_out = watchdog
        .join()
        .map_err(|_| "watchdog panicked".to_string())?;
    let mut status = 0i32;
    if let Err(e) = exited {
        // Never leave the child running or unreaped.
        // SAFETY: as for the watchdog; `status` is valid for writes, and
        // `wait4` accepts a null rusage pointer.
        unsafe {
            kill(pid, SIGKILL);
            wait4(pid, &mut status, 0, std::ptr::null_mut());
        }
        return Err(format!("waitid: {e}"));
    }
    let mut usage = std::mem::MaybeUninit::<Rusage>::zeroed();
    // SAFETY: `status` and `usage` are valid for writes of their types.
    retry_eintr(|| unsafe { wait4(pid, &mut status, 0, usage.as_mut_ptr()) })
        .map_err(|e| format!("wait4: {e}"))?;
    // SAFETY: a successful `wait4` filled the whole struct (and it was
    // zero-initialised before).
    let usage = unsafe { usage.assume_init() };
    let exit = if status & 0x7f == 0 {
        Some((status >> 8) & 0xff)
    } else {
        None
    };
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    Ok(ChildRun {
        exit,
        timed_out,
        wall_s,
        cpu_s: secs(&usage.ru_utime) + secs(&usage.ru_stime),
        peak_rss_mb: usage.ru_maxrss as f64 / 1024.0,
        stdout: std::fs::read_to_string(&out_path).unwrap_or_default(),
        stderr: std::fs::read_to_string(&err_path).unwrap_or_default(),
    })
}

/// Call `f` until it does not fail with `EINTR`.
fn retry_eintr(mut f: impl FnMut() -> i32) -> std::io::Result<()> {
    loop {
        if f() >= 0 {
            return Ok(());
        }
        let e = std::io::Error::last_os_error();
        if e.kind() != std::io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
}
