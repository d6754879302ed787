//! Traced mode: one span per public-layer call the benchmark makes, kept
//! in memory, summarised as per-layer self time and written out as one
//! Perfetto file at exit.
//!
//! A layer's self time is its span's duration minus the part its child
//! spans cover. Self times of all spans plus the time no root span covers
//! (unattributed) add up to the traced wall time of each thread.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use cdvm_stats::ChromeTrace;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call name, e.g. `core.run_slice`.
    pub name: &'static str,
    /// Start, ns since the trace epoch.
    pub start_ns: u64,
    /// End, ns since the trace epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// The job the call belongs to (0 for none).
    pub job: u64,
}

/// Spans of one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    /// Perfetto track of this thread.
    pub tid: u32,
    /// Recorded spans; open ones have `end_ns == 0`.
    pub spans: Vec<Span>,
    open: Vec<usize>,
    /// Wall time of the traced phases on this thread.
    pub wall_ns: u64,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch`.
    pub fn new(epoch: Instant, tid: u32) -> Tracer {
        Tracer {
            epoch,
            tid,
            spans: Vec::new(),
            open: Vec::new(),
            wall_ns: 0,
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, job: u64) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent: self.open.last().copied(),
            job,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes the innermost open span, which must be `idx`.
    pub fn end(&mut self, idx: usize) {
        let now = self.now();
        debug_assert_eq!(self.open.last(), Some(&idx));
        self.open.pop();
        self.spans[idx].end_ns = now.max(self.spans[idx].start_ns);
    }

    /// Records a finished call `[start_ns, end_ns]` under the innermost
    /// open span.
    pub fn record(&mut self, name: &'static str, job: u64, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent: self.open.last().copied(),
            job,
        });
    }
}

/// Per-layer self time summed over `tracers`, plus the unattributed
/// remainder of their traced wall time.
#[derive(Debug, Default)]
pub struct LayerTable {
    /// Self ns per span name.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Calls per span name.
    pub calls: BTreeMap<&'static str, u64>,
    /// Traced wall ns not covered by any root span.
    pub unattributed_ns: u64,
    /// Sum of the tracers' traced wall ns.
    pub wall_ns: u64,
}

impl LayerTable {
    /// Builds the table. Spans must nest: children lie inside their
    /// parent and siblings do not overlap.
    pub fn build(tracers: &[&Tracer]) -> LayerTable {
        let mut t = LayerTable::default();
        for tr in tracers {
            let mut child_ns = vec![0u64; tr.spans.len()];
            let mut root_ns = 0u64;
            for s in &tr.spans {
                let dur = s.end_ns - s.start_ns;
                match s.parent {
                    Some(p) => child_ns[p] += dur,
                    None => root_ns += dur,
                }
            }
            for (s, child) in tr.spans.iter().zip(child_ns) {
                let dur = s.end_ns - s.start_ns;
                *t.self_ns.entry(s.name).or_default() += dur.saturating_sub(child);
                *t.calls.entry(s.name).or_default() += 1;
            }
            t.wall_ns += tr.wall_ns;
            t.unattributed_ns += tr.wall_ns.saturating_sub(root_ns);
        }
        t
    }

    /// Self time of all layers plus unattributed time.
    pub fn total_ns(&self) -> u64 {
        self.self_ns.values().sum::<u64>() + self.unattributed_ns
    }

    /// Prints the table; the last row checks the sum against wall time.
    pub fn print(&self, title: &str) {
        println!("per-layer self time: {title}");
        println!(
            "  {:<28} {:>10} {:>12} {:>7}",
            "layer", "calls", "self_ms", "share"
        );
        let wall = self.wall_ns.max(1) as f64;
        for (name, ns) in &self.self_ns {
            println!(
                "  {:<28} {:>10} {:>12.3} {:>6.2}%",
                name,
                self.calls[name],
                *ns as f64 / 1e6,
                100.0 * *ns as f64 / wall
            );
        }
        println!(
            "  {:<28} {:>10} {:>12.3} {:>6.2}%",
            "(unattributed)",
            "",
            self.unattributed_ns as f64 / 1e6,
            100.0 * self.unattributed_ns as f64 / wall
        );
        println!(
            "  sum {:.3} ms = traced wall {:.3} ms",
            self.total_ns() as f64 / 1e6,
            self.wall_ns as f64 / 1e6
        );
    }
}

/// Writes every span as a Perfetto (Chrome trace) duration event, one
/// track per tracer, to `.bench_out/perfbench-<workload>.trace.json`.
pub fn write_perfetto(workload: &str, tracers: &[&Tracer]) -> std::io::Result<PathBuf> {
    let mut ct = ChromeTrace::new();
    ct.process_name(1, &format!("perfbench {workload}"));
    for tr in tracers {
        ct.thread_name(1, tr.tid, &format!("thread {}", tr.tid));
        for s in &tr.spans {
            let cat = if s.job == 0 {
                "bench".to_string()
            } else {
                format!("job {}", s.job)
            };
            ct.complete(
                1,
                tr.tid,
                s.name,
                &cat,
                s.start_ns as f64 / 1000.0,
                (s.end_ns - s.start_ns) as f64 / 1000.0,
            );
        }
    }
    let dir = Path::new(".bench_out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("perfbench-{workload}.trace.json"));
    std::fs::write(&path, ct.to_json())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            job: 1,
        }
    }

    #[test]
    fn self_times_and_unattributed_add_up_to_wall() {
        let mut tr = Tracer::new(Instant::now(), 1);
        tr.spans = vec![
            span("job", 10, 110, None),
            span("new", 10, 20, Some(0)),
            span("slice", 20, 60, Some(0)),
            span("slice", 60, 100, Some(0)),
            span("job", 120, 150, None),
        ];
        tr.wall_ns = 200;
        let t = LayerTable::build(&[&tr]);
        assert_eq!(t.self_ns["job"], 10 + 30);
        assert_eq!(t.self_ns["new"], 10);
        assert_eq!(t.self_ns["slice"], 80);
        assert_eq!(t.unattributed_ns, 200 - 130);
        assert_eq!(t.total_ns(), 200);
    }

    #[test]
    fn recorded_calls_nest_under_the_open_span() {
        let mut tr = Tracer::new(Instant::now(), 1);
        let job = tr.begin("job", 7);
        tr.record("slice", 7, 100, 200);
        tr.end(job);
        tr.record("check", 7, 300, 350);
        assert_eq!(tr.spans[1].parent, Some(0));
        assert_eq!(tr.spans[2].parent, None);
    }
}
