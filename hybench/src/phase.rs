//! Phase boundaries and spans.
//!
//! Every rank program stamps the host clock and its virtual clock when it
//! leaves a phase ([`Marks::leave`]). Under the single-threaded events
//! executor a rank's own host-time span also contains the work of every
//! rank it waited on, so host time is taken *between boundaries*: a
//! phase runs from the moment the last rank left the previous phase to
//! the moment the last rank left this one. Each boundary is also a
//! zero-virtual-cost host-time fence (`Ctx::oob_fence`): without it, the
//! ranks that leave a phase first run ahead, and their work on the next
//! phase lands in this phase's span. A span's virtual start and end are
//! the latest virtual exit times over ranks.
//!
//! In a traced run the same call also drops a zero-cost
//! [`EventKind::Decision`](simnet::trace::EventKind) marker with op
//! [`PHASE_OP`] into the rank's trace, so event counts can be attributed
//! to phases in program order (see `traced.rs`).

use std::fmt::Write as _;
use std::time::Instant;

use msim::Ctx;

/// `op` of the trace markers that delimit phases.
pub const PHASE_OP: &str = "hybench.phase";

/// One rank's phase exits, in program order.
#[derive(Debug, Default)]
pub struct Marks(Vec<(&'static str, Instant, f64)>);

impl Marks {
    /// Record that this rank leaves phase `name` now, then wait (in host
    /// time only) until every rank has left it, so that no rank's work
    /// on the next phase runs inside this one's span.
    pub fn leave(&mut self, ctx: &mut Ctx, name: &'static str) {
        ctx.trace_decision(PHASE_OP, name, "");
        self.0.push((name, Instant::now(), ctx.now()));
        let world = ctx.world();
        ctx.oob_fence(&world);
    }
}

/// A phase of one `Universe::run`, reduced over ranks.
#[derive(Debug, Clone)]
pub struct Phase {
    pub name: &'static str,
    /// Host seconds from the last rank leaving the previous phase (or the
    /// `Universe::run` entry) to the last rank leaving this one.
    pub host_s: f64,
    /// Host instant at which the last rank left this phase.
    pub host_end: Instant,
    /// Latest virtual exit time over ranks (µs).
    pub virt_end: f64,
}

/// Reduce every rank's marks at the phase boundaries. All ranks must have
/// left the same phases in the same order.
pub fn reduce(entry: Instant, marks: &[Marks]) -> Vec<Phase> {
    let names: Vec<&'static str> = marks[0].0.iter().map(|m| m.0).collect();
    let mut phases = Vec::with_capacity(names.len());
    let mut prev_end = entry;
    for (k, &name) in names.iter().enumerate() {
        let mut host_end = prev_end;
        let mut virt_end = 0.0f64;
        for rank in marks {
            let (n, host, virt) = rank.0[k];
            assert_eq!(n, name, "ranks left different phases");
            host_end = host_end.max(host);
            virt_end = virt_end.max(virt);
        }
        phases.push(Phase {
            name,
            host_s: (host_end - prev_end).as_secs_f64(),
            host_end,
            virt_end,
        });
        prev_end = host_end;
    }
    phases
}

/// Look up a phase by name.
pub fn find<'a>(phases: &'a [Phase], name: &str) -> &'a Phase {
    phases
        .iter()
        .find(|p| p.name == name)
        .unwrap_or_else(|| panic!("no phase {name:?}"))
}

/// One recorded span: host and virtual start and end, and its parent.
#[derive(Debug)]
struct Span {
    id: usize,
    parent: Option<usize>,
    name: String,
    host_start_s: f64,
    host_end_s: f64,
    virt: Option<(f64, f64)>,
}

/// The benchmark's in-memory span log, written out when the run ends.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Open a host-only span now and return its id (a parent for
    /// others); [`Spans::close`] ends it.
    pub fn open(&mut self, parent: Option<usize>, name: &str) -> usize {
        let now = Instant::now();
        self.push(parent, name, now, now, None)
    }

    /// End an open span now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].host_end_s = self.origin.elapsed().as_secs_f64();
    }

    /// Record a finished host-only span and return its id.
    pub fn host(
        &mut self,
        parent: Option<usize>,
        name: &str,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.push(parent, name, start, end, None)
    }

    /// Record the phases of one `Universe::run` entered at `entry` as
    /// children of `parent`.
    pub fn phases(&mut self, parent: usize, entry: Instant, phases: &[Phase]) {
        let (mut start, mut virt_start) = (entry, 0.0);
        for p in phases {
            self.push(
                Some(parent),
                p.name,
                start,
                p.host_end,
                Some((virt_start, p.virt_end)),
            );
            start = p.host_end;
            virt_start = p.virt_end;
        }
    }

    fn push(
        &mut self,
        parent: Option<usize>,
        name: &str,
        start: Instant,
        end: Instant,
        virt: Option<(f64, f64)>,
    ) -> usize {
        let id = self.spans.len();
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64();
        let span = Span {
            id,
            parent,
            name: name.to_string(),
            host_start_s: at(start),
            host_end_s: at(end),
            virt,
        };
        self.spans.push(span);
        id
    }

    /// The log as JSON lines: one object per span.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let virt = s
                .virt
                .map_or("null".to_string(), |(a, b)| format!("[{a:?},{b:?}]"));
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":{:?},\"host_s\":[{:?},{:?}],\"virt_us\":{virt}}}",
                s.id, s.name, s.host_start_s, s.host_end_s
            );
        }
        out
    }
}
