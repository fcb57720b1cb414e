//! Event counts of a traced run, attributed to phases.
//!
//! `Tracer::events` keeps each rank's events in program order, and every
//! rank drops a [`PHASE_OP`] marker when it leaves a phase, so an event
//! belongs to the phase whose marker is the next one in its rank's
//! sequence. `Recv` events mirror the `Send`s and are not counted apart.

use std::collections::BTreeMap;

use simnet::{EventKind, RankMap, Tracer};

use crate::phase::PHASE_OP;

/// Counts of one phase (or of a whole run), summed over ranks.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    pub sends_intra: u64,
    pub sends_inter: u64,
    pub send_bytes_intra: u64,
    pub send_bytes_inter: u64,
    pub copies: u64,
    pub copy_bytes: u64,
    /// Shared-window bytes allocated, per node.
    pub win_bytes: BTreeMap<usize, u64>,
    pub barriers: u64,
    /// Selection decisions (phase markers excluded).
    pub decisions: u64,
    pub compute_flops: f64,
    /// Every event, phase markers excluded.
    pub events: u64,
}

impl Counts {
    pub fn sends(&self) -> u64 {
        self.sends_intra + self.sends_inter
    }

    /// Largest shared-window allocation on any one node (bytes).
    pub fn win_bytes_per_node(&self) -> u64 {
        self.win_bytes.values().copied().max().unwrap_or(0)
    }

    pub fn add(&mut self, other: &Counts) {
        self.sends_intra += other.sends_intra;
        self.sends_inter += other.sends_inter;
        self.send_bytes_intra += other.send_bytes_intra;
        self.send_bytes_inter += other.send_bytes_inter;
        self.copies += other.copies;
        self.copy_bytes += other.copy_bytes;
        for (&node, &b) in &other.win_bytes {
            *self.win_bytes.entry(node).or_default() += b;
        }
        self.barriers += other.barriers;
        self.decisions += other.decisions;
        self.compute_flops += other.compute_flops;
        self.events += other.events;
    }
}

/// Per-phase counts of one traced run, keyed by phase name.
#[derive(Debug, Default)]
pub struct PhaseCounts(pub BTreeMap<String, Counts>);

impl PhaseCounts {
    /// Count `tracer`'s events by phase; `map` places ranks on nodes.
    pub fn of(tracer: &Tracer, map: &RankMap) -> Self {
        let mut by_phase: BTreeMap<String, Counts> = BTreeMap::new();
        let mut current = Counts::default();
        let mut rank = None;
        for e in tracer.events() {
            if rank != Some(e.rank) {
                assert!(
                    current.events == 0,
                    "rank {:?} has events after its last phase marker",
                    rank
                );
                rank = Some(e.rank);
            }
            let c = &mut current;
            match &e.kind {
                EventKind::Decision { op, algo, .. } if op == PHASE_OP => {
                    by_phase.entry(algo.clone()).or_default().add(c);
                    *c = Counts::default();
                    continue;
                }
                EventKind::Send { bytes, intra, .. } => {
                    if *intra {
                        c.sends_intra += 1;
                        c.send_bytes_intra += *bytes as u64;
                    } else {
                        c.sends_inter += 1;
                        c.send_bytes_inter += *bytes as u64;
                    }
                }
                EventKind::Copy { bytes } => {
                    c.copies += 1;
                    c.copy_bytes += *bytes as u64;
                }
                EventKind::WinAlloc { bytes } => {
                    *c.win_bytes.entry(map.node_of(e.rank)).or_default() += *bytes as u64;
                }
                EventKind::Barrier => c.barriers += 1,
                EventKind::Decision { .. } => c.decisions += 1,
                EventKind::Compute { flops } => c.compute_flops += flops,
                _ => {}
            }
            c.events += 1;
        }
        assert!(
            current.events == 0,
            "the last rank has events after its last phase marker"
        );
        Self(by_phase)
    }

    /// Counts of one phase (zero when no rank recorded it).
    pub fn phase(&self, name: &str) -> Counts {
        self.0.get(name).cloned().unwrap_or_default()
    }

    /// Counts summed over every phase.
    pub fn total(&self) -> Counts {
        let mut t = Counts::default();
        for c in self.0.values() {
            t.add(c);
        }
        t
    }

    /// Add another run's counts (apps run several universes per rep).
    pub fn merge(&mut self, other: PhaseCounts) {
        for (name, c) in other.0 {
            self.0.entry(name).or_default().add(&c);
        }
    }
}
