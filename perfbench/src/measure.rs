//! Timing statistics, memory, and the span recorder.

use mpest_obs::{Span, TraceFormat, Tracer};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `q`-quantile of `xs` by linear interpolation between order
/// statistics; `0.0` for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The median, over consecutive windows of `window` samples, of each
/// window's `q`-quantile; the whole sample's when it fills no window.
/// A burst of load from other guests on a shared host lifts the tail of
/// the windows it falls in, not that of the median window.
pub fn windowed_quantile(xs: &[f64], window: usize, q: f64) -> f64 {
    let per_window: Vec<f64> = xs
        .chunks_exact(window.max(1))
        .map(|w| quantile(w, q))
        .collect();
    if per_window.is_empty() {
        quantile(xs, q)
    } else {
        median(&per_window)
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A Linux `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Pins the calling thread, and with it every thread it starts later,
/// to the first CPU it may run on.
pub fn pin_to_one_cpu() -> std::io::Result<()> {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a writable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    let word = allowed
        .iter()
        .position(|&w| w != 0)
        .ok_or_else(|| std::io::Error::other("empty CPU affinity mask"))?;
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << allowed[word].trailing_zeros();
    // SAFETY: `one` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(())
}

/// An in-memory sink shared with the tracer, written out once at the
/// end of the run so span output costs no file I/O while measuring.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("span buffer lock poisoned")
            .extend_from_slice(bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Spans around the benchmark's calls into each layer. The daemon
/// gets the same [`Tracer`], so its per-query phase spans share the
/// clock and the file. Each benchmark span carries its own id and its
/// parent's in `tags`, and the query (or operation) id in `id`.
pub struct Spans {
    tracer: Tracer,
    buf: SharedBuf,
    next: AtomicU64,
}

impl Spans {
    pub fn off() -> Self {
        Self {
            tracer: Tracer::disabled(),
            buf: SharedBuf::default(),
            next: AtomicU64::new(1),
        }
    }

    pub fn on() -> Self {
        let buf = SharedBuf::default();
        let tracer = Tracer::new(Box::new(buf.clone()), TraceFormat::Jsonl)
            .expect("an in-memory trace sink cannot fail to open");
        Self {
            tracer,
            buf,
            next: AtomicU64::new(1),
        }
    }

    pub fn enabled(&self) -> bool {
        self.tracer.enabled()
    }

    pub fn tracer(&self) -> Tracer {
        self.tracer.clone()
    }

    /// The start stamp for a span that [`Spans::close`] ends.
    pub fn open(&self) -> u64 {
        self.tracer.now_us()
    }

    /// Records `name` from `start_us` to now; returns the span's id
    /// (0 when tracing is off) for its children to name as parent.
    pub fn close(&self, name: &'static str, start_us: u64, query: u64, parent: u64) -> u64 {
        if !self.enabled() {
            return 0;
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.tracer.record(&Span {
            name,
            conn: 0,
            id: query,
            start_us,
            dur_us: self.tracer.now_us().saturating_sub(start_us),
            phases: Vec::new(),
            tags: vec![
                ("span", id.to_string()),
                ("parent", parent.to_string()),
                ("source", "bench".to_string()),
            ],
        });
        id
    }

    /// Spans recorded so far (the benchmark's and the daemon's).
    pub fn count(&self) -> usize {
        let buf = self.buf.0.lock().expect("span buffer lock poisoned");
        buf.iter().filter(|&&b| b == b'\n').count()
    }

    /// Writes every span recorded so far to `path` as JSON lines.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        self.tracer.finish();
        let buf = self.buf.0.lock().expect("span buffer lock poisoned");
        std::fs::write(path, &*buf)
    }
}
