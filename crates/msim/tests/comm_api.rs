//! Communicator API invariants: rank translation, nested splits,
//! determinism of the split machinery.

use msim::{Communicator, Ctx, FaultPlan, Payload, SimConfig, Universe};
use simnet::{ClusterSpec, CostModel, Placement};

fn cfg(nodes: usize, ppn: usize) -> SimConfig {
    SimConfig::new(ClusterSpec::regular(nodes, ppn), CostModel::uniform_test())
}

#[test]
fn translation_roundtrips_on_world() {
    let r = Universe::run(cfg(2, 3), |ctx| {
        let world = ctx.world();
        let mut ok = true;
        for local in 0..world.size() {
            let g = world.global_of(local);
            ok &= world.local_of(g) == Some(local);
        }
        ok &= world.local_of(999).is_none();
        ok
    })
    .unwrap();
    assert!(r.per_rank.iter().all(|&ok| ok));
}

#[test]
fn translation_roundtrips_on_subcomms() {
    let r = Universe::run(cfg(2, 3), |ctx| {
        let world = ctx.world();
        let color = (ctx.rank() % 3) as i64;
        let c = world.split(ctx, Some(color), 0).unwrap();
        // Every member's global rank maps back to its local rank.
        let mut ok = c.members().len() == c.size();
        for local in 0..c.size() {
            ok &= c.local_of(c.global_of(local)) == Some(local);
        }
        // Non-members are not translatable.
        for g in 0..ctx.nranks() {
            let member = c.members().contains(&g);
            ok &= c.local_of(g).is_some() == member;
        }
        ok
    })
    .unwrap();
    assert!(r.per_rank.iter().all(|&ok| ok));
}

#[test]
fn nested_splits_compose() {
    // world -> row comms -> per-row pair comms; traffic stays scoped.
    let r = Universe::run(cfg(2, 4), |ctx| {
        let world = ctx.world();
        let row = world.split(ctx, Some((ctx.rank() / 4) as i64), 0).unwrap();
        let pair = row.split(ctx, Some((row.rank() / 2) as i64), 0).unwrap();
        assert_eq!(pair.size(), 2);
        // Ping within the pair.
        let peer = 1 - pair.rank();
        ctx.send(&pair, peer, 3, Payload::empty());
        ctx.recv(&pair, peer, 3);
        (row.rank(), pair.rank(), pair.members().to_vec())
    })
    .unwrap();
    // Rank 5 (row 1, index 1) pairs with rank 4.
    assert_eq!(r.per_rank[5].2, vec![4, 5]);
    assert_eq!(r.per_rank[5].1, 1);
}

#[test]
fn comm_ids_are_unique_across_groups() {
    let r = Universe::run(cfg(1, 6), |ctx| {
        let world = ctx.world();
        let a = world.split(ctx, Some((ctx.rank() % 2) as i64), 0).unwrap();
        let b = world.split(ctx, Some((ctx.rank() % 3) as i64), 0).unwrap();
        (world.id(), a.id(), b.id())
    })
    .unwrap();
    for (w, a, b) in &r.per_rank {
        assert_ne!(w, a);
        assert_ne!(a, b);
        assert_ne!(w, b);
    }
    // Different colors of the same split have different ids.
    assert_ne!(r.per_rank[0].1, r.per_rank[1].1);
}

#[test]
fn sequential_splits_on_one_comm_do_not_collide() {
    // Repeatedly splitting the same communicator must produce fresh,
    // functional communicators every time (per-rank op sequencing).
    let r = Universe::run(cfg(1, 4), |ctx| {
        let world = ctx.world();
        let mut last_id = world.id();
        for round in 0..5i64 {
            let c = world.split(ctx, Some(round % 2), 0).unwrap();
            assert_ne!(c.id(), last_id);
            last_id = c.id();
            // Use it: a tiny ring to prove it routes.
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            ctx.send(&c, next, round as u32, Payload::empty());
            ctx.recv(&c, prev, round as u32);
        }
        true
    })
    .unwrap();
    assert!(r.per_rank.iter().all(|&ok| ok));
}

#[test]
fn undefined_color_excludes_rank_everywhere() {
    let r = Universe::run(cfg(1, 5), |ctx| {
        let world = ctx.world();
        let c = world.split(ctx, (ctx.rank() < 2).then_some(0), 0);
        match c {
            Some(c) => {
                assert_eq!(c.size(), 2);
                true
            }
            None => ctx.rank() >= 2,
        }
    })
    .unwrap();
    assert!(r.per_rank.iter().all(|&ok| ok));
}

/// Brute-force distinct-node count of `comm`'s members: the reference
/// for the count cached when the communicator was built.
fn distinct_nodes(ctx: &Ctx, comm: &Communicator) -> usize {
    let mut nodes: Vec<usize> = comm
        .members()
        .iter()
        .map(|&g| ctx.map().node_of(g))
        .collect();
    nodes.sort_unstable();
    nodes.dedup();
    nodes.len()
}

/// Every way a communicator is built — world, `split_shared`,
/// `split_bridge`, an uneven split, `shrink` and `from_grow` — caches the
/// same node count a brute-force scan finds. Rank 0 is killed and the
/// last rank is a spare recruited back in, so on `[1, 3, 4]` the shrunk
/// communicator loses a whole node.
#[test]
fn cached_node_count_matches_a_brute_force_count() {
    let layouts = [
        SimConfig::new(ClusterSpec::regular(4, 6), CostModel::uniform_test()),
        SimConfig::new(ClusterSpec::regular(4, 6), CostModel::uniform_test())
            .with_placement(Placement::RoundRobin),
        SimConfig::new(
            ClusterSpec::irregular(vec![1, 3, 4]),
            CostModel::uniform_test(),
        ),
    ];
    for cfg in layouts {
        let nranks = cfg.spec.total_cores();
        let (victim, spare) = (0, nranks - 1);
        let plan = FaultPlan::none().with_kill(victim, 0);
        let r = Universe::run_ft(cfg.with_fault(plan), move |ctx| {
            let mut seen = Vec::new();
            let mut check = |ctx: &Ctx, what: &'static str, c: &Communicator| {
                seen.push((what, c.num_nodes(), distinct_nodes(ctx, c)));
            };
            let world = ctx.world();
            check(ctx, "world", &world);
            let shm = world.split_shared(ctx);
            check(ctx, "shm", &shm);
            if let Some(bridge) = world.split_bridge(ctx, &shm) {
                check(ctx, "bridge", &bridge);
            }
            let uneven = world.split(ctx, Some(i64::from(ctx.rank() % 3 == 0)), 0);
            check(ctx, "uneven", &uneven.expect("every rank has a color"));
            let actives = world.split(ctx, Some(i64::from(ctx.rank() == spare)), 0);
            let actives = actives.expect("every rank has a color");
            if ctx.rank() == spare {
                let out = ctx.ft_grow_standby(7, 0);
                assert_eq!(out.recruits, vec![spare]);
                ctx.set_ft_epoch(out.epoch);
                check(ctx, "grow", &Communicator::from_grow(ctx, &out));
                return seen;
            }
            if ctx.rank() == victim {
                ctx.compute(1.0); // the kill op
                return seen;
            }
            ctx.ft_divert(1);
            let outcome = ctx.ft_agree(&actives, 0);
            let shrunk = actives.shrink(ctx, &outcome);
            check(ctx, "shrink", &shrunk);
            ctx.set_ft_epoch(1);
            let out = ctx.ft_grow(7, 0, shrunk.members(), &[spare], 1, 0, 0, false);
            check(ctx, "grow", &Communicator::from_grow(ctx, &out));
            seen
        })
        .unwrap();
        assert_eq!(r.failed, vec![victim]);
        let mut shrunk_nodes = Vec::new();
        for (rank, seen) in r.per_rank.iter().enumerate() {
            let Some(seen) = seen else { continue };
            let built: Vec<&str> = seen.iter().map(|s| s.0).collect();
            let tail: &[&str] = if rank == spare {
                &["grow"]
            } else {
                &["shrink", "grow"]
            };
            assert!(built.ends_with(tail), "rank {rank}: {built:?}");
            for &(what, cached, brute) in seen {
                assert_eq!(cached, brute, "rank {rank}, {what}");
                if what == "shrink" {
                    shrunk_nodes.push(cached);
                }
            }
        }
        assert_eq!(shrunk_nodes.len(), nranks - 2);
        if nranks == 8 {
            // [1, 3, 4]: killing rank 0 empties node 0.
            assert!(shrunk_nodes.iter().all(|&n| n == 2));
        }
    }
}
