//! In-memory span recorder for the traced run.
//!
//! A span is opened around one call into a layer's public function and
//! closed when the call returns. Spans are kept in memory (no I/O while
//! measuring); self time is a span's duration minus the time its direct
//! children cover. Spans opened while one record batch is processed share
//! that batch's id.

use std::io::Write;
use std::time::Instant;

use simnet::alloc_count;

/// The layers the benchmark traces. `Batch`, `Flush` and `Restart` are
/// the driver's own loop bodies (glue); every other layer is a call into
/// the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Batch,
    Flush,
    Restart,
    Generate,
    Faults,
    Rescope,
    Symbolize,
    Filter,
    Tagger,
    Correlate,
    Respond,
    Retention,
    Ingest,
    Snapshot,
    Encode,
    Shutdown,
    Spawn,
    Decode,
    Restore,
}

impl Layer {
    pub const ALL: [Layer; 19] = [
        Layer::Batch,
        Layer::Flush,
        Layer::Restart,
        Layer::Generate,
        Layer::Faults,
        Layer::Rescope,
        Layer::Symbolize,
        Layer::Filter,
        Layer::Tagger,
        Layer::Correlate,
        Layer::Respond,
        Layer::Retention,
        Layer::Ingest,
        Layer::Snapshot,
        Layer::Encode,
        Layer::Shutdown,
        Layer::Spawn,
        Layer::Decode,
        Layer::Restore,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Batch => "batch",
            Layer::Flush => "flush",
            Layer::Restart => "restart",
            Layer::Generate => "generate",
            Layer::Faults => "faults",
            Layer::Rescope => "rescope",
            Layer::Symbolize => "symbolize",
            Layer::Filter => "filter",
            Layer::Tagger => "tagger",
            Layer::Correlate => "correlate",
            Layer::Respond => "respond",
            Layer::Retention => "retention",
            Layer::Ingest => "ingest",
            Layer::Snapshot => "snapshot",
            Layer::Encode => "encode",
            Layer::Shutdown => "shutdown",
            Layer::Spawn => "spawn",
            Layer::Decode => "decode",
            Layer::Restore => "restore",
        }
    }

    /// Driver loop bodies: their self time is the benchmark's own glue,
    /// not a layer of the program.
    pub fn is_glue(self) -> bool {
        matches!(self, Layer::Batch | Layer::Flush | Layer::Restart)
    }
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    pub batch: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Heap allocations made while the span was open (children included).
    pub allocs: u64,
}

/// Handle of an open span; close it with [`Tracer::close`].
#[must_use]
pub struct Open(Option<u32>);

/// Span recorder. A disabled tracer records nothing and costs one branch
/// per call.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    batch: u32,
}

/// Per-layer totals derived from spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotal {
    pub calls: u64,
    pub self_ns: u64,
    pub self_allocs: u64,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            batch: 0,
        }
    }

    /// An enabled tracer. Its span buffer grows during a first pass and
    /// keeps that capacity across [`Tracer::clear`], so later passes
    /// record without allocating inside measured layers.
    pub fn on() -> Tracer {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::with_capacity(16),
            batch: 0,
        }
    }

    /// Forget recorded spans, keeping the reserved capacity.
    pub fn clear(&mut self) {
        self.spans.clear();
        self.stack.clear();
        self.batch = 0;
    }

    /// Spans opened from now on belong to the next batch.
    pub fn next_batch(&mut self) {
        self.batch += 1;
    }

    pub fn open(&mut self, layer: Layer) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            layer,
            batch: self.batch,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            allocs: alloc_count::total(),
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn close(&mut self, open: Open) {
        let Some(idx) = open.0 else {
            return;
        };
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        let allocs = alloc_count::total();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(idx), "spans close in LIFO order");
        let span = &mut self.spans[idx as usize];
        span.end_ns = end_ns;
        span.allocs = allocs - span.allocs;
    }

    /// Run `f` inside a span of `layer`.
    pub fn span<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let open = self.open(layer);
        let out = f();
        self.close(open);
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time and self allocations per layer, indexed like
    /// [`Layer::ALL`].
    pub fn totals(&self) -> [LayerTotal; Layer::ALL.len()] {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut child_allocs = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
                child_allocs[s.parent as usize] += s.allocs;
            }
        }
        let mut out = [LayerTotal::default(); Layer::ALL.len()];
        for (i, s) in self.spans.iter().enumerate() {
            let t = &mut out[s.layer as usize];
            t.calls += 1;
            t.self_ns += (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            t.self_allocs += s.allocs.saturating_sub(child_allocs[i]);
        }
        out
    }

    /// Tab-separated dump: one line per span, in opening order.
    pub fn write_tsv(&self, w: &mut impl Write) -> std::io::Result<()> {
        writeln!(w, "idx\tbatch\tlayer\tparent\tstart_ns\tend_ns\tallocs")?;
        for (i, sp) in self.spans.iter().enumerate() {
            write!(w, "{i}\t{}\t{}\t", sp.batch, sp.layer.name())?;
            if sp.parent == NO_PARENT {
                write!(w, "-")?;
            } else {
                write!(w, "{}", sp.parent)?;
            }
            writeln!(w, "\t{}\t{}\t{}", sp.start_ns, sp.end_ns, sp.allocs)?;
        }
        Ok(())
    }
}

/// Accumulated per-layer totals over several traced passes.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    pub layers: [LayerTotal; Layer::ALL.len()],
    /// Wall time of the traced passes.
    pub wall_ns: u64,
}

impl Profile {
    pub fn add(&mut self, tracer: &Tracer, wall_ns: u64) {
        for (acc, t) in self.layers.iter_mut().zip(tracer.totals()) {
            acc.calls += t.calls;
            acc.self_ns += t.self_ns;
            acc.self_allocs += t.self_allocs;
        }
        self.wall_ns += wall_ns;
    }

    pub fn get(&self, layer: Layer) -> LayerTotal {
        self.layers[layer as usize]
    }

    /// Share of traced wall time spent inside program layers (glue and
    /// untraced driver code make up the rest).
    pub fn coverage(&self) -> f64 {
        let covered: u64 = Layer::ALL
            .iter()
            .filter(|l| !l.is_glue())
            .map(|l| self.get(*l).self_ns)
            .sum();
        covered as f64 / self.wall_ns.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::on();
        let b = t.open(Layer::Batch);
        let s = t.open(Layer::Symbolize);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.close(s);
        let f = t.open(Layer::Filter);
        t.close(f);
        t.close(b);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[0].parent, NO_PARENT);
        let totals = t.totals();
        let whole = spans[0].end_ns - spans[0].start_ns;
        let sym = totals[Layer::Symbolize as usize].self_ns;
        let filt = totals[Layer::Filter as usize].self_ns;
        let batch = totals[Layer::Batch as usize].self_ns;
        assert_eq!(batch + sym + filt, whole);
        assert!(sym >= 2_000_000);
        assert_eq!(totals[Layer::Batch as usize].calls, 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let v = t.span(Layer::Symbolize, || 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_of_one_batch_share_an_id() {
        let mut t = Tracer::on();
        t.span(Layer::Symbolize, || ());
        t.span(Layer::Filter, || ());
        t.next_batch();
        t.span(Layer::Symbolize, || ());
        let ids: Vec<u32> = t.spans().iter().map(|s| s.batch).collect();
        assert_eq!(ids, vec![0, 0, 1]);
        let mut tsv = Vec::new();
        t.write_tsv(&mut tsv).unwrap();
        let tsv = String::from_utf8(tsv).unwrap();
        assert_eq!(tsv.lines().count(), 4);
        assert!(tsv
            .lines()
            .nth(1)
            .unwrap()
            .starts_with("0\t0\tsymbolize\t-\t"));
    }

    #[test]
    fn layer_table_is_indexed_by_discriminant() {
        for (i, l) in Layer::ALL.iter().enumerate() {
            assert_eq!(*l as usize, i);
        }
    }
}
