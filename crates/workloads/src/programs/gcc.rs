//! `GCC` analogue: compiler symbol-table and tree manipulation.
//!
//! Profile: pointer chasing over a few-hundred-kilobyte binary search tree
//! with data-dependent descend-left/descend-right branches (the paper's
//! worst branch-prediction rate, 80.2 %), interleaved with sequential
//! allocation. A compiler works on several structures at once, so four
//! independent walks advance in parallel — that concurrency is what gives
//! GCC its mid-range IPC despite the serial pointer chains.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use hbat_isa::inst::{Cond, Width};

use crate::builder::Builder;
use crate::config::WorkloadConfig;
use crate::layout::HeapLayout;
use crate::suite::Workload;
use crate::util::emit_xorshift;

const NODE_BYTES: u64 = 40; // key, left, right, payload0, payload1
const WALKS: usize = 4;

/// Host-side BST built into the memory image.
fn build_tree(pool: u64, nodes: usize, key_mask: u64, rng: &mut SmallRng) -> Vec<u8> {
    #[derive(Clone, Copy)]
    struct Node {
        key: u64,
        left: u64,
        right: u64,
    }
    let addr = |i: usize| pool + i as u64 * NODE_BYTES;
    let mut tree: Vec<Node> = Vec::with_capacity(nodes);
    tree.push(Node {
        key: key_mask / 2,
        left: 0,
        right: 0,
    });
    while tree.len() < nodes {
        let key = rng.gen::<u64>() & key_mask;
        let idx = tree.len();
        let mut at = 0usize;
        loop {
            let n = tree[at];
            if key == n.key {
                break; // drop duplicates
            }
            let slot = if key < n.key { n.left } else { n.right };
            if slot == 0 {
                if key < n.key {
                    tree[at].left = addr(idx);
                } else {
                    tree[at].right = addr(idx);
                }
                tree.push(Node {
                    key,
                    left: 0,
                    right: 0,
                });
                break;
            }
            at = ((slot - pool) / NODE_BYTES) as usize;
        }
    }
    tree.iter()
        .flat_map(|n| {
            let mut bytes = Vec::with_capacity(NODE_BYTES as usize);
            bytes.extend_from_slice(&n.key.to_le_bytes());
            bytes.extend_from_slice(&n.left.to_le_bytes());
            bytes.extend_from_slice(&n.right.to_le_bytes());
            bytes.extend_from_slice(&(n.key ^ 0x5555).to_le_bytes());
            bytes.extend_from_slice(&(n.key.wrapping_mul(3)).to_le_bytes());
            bytes
        })
        .collect()
}

/// Builds the workload.
///
/// # Panics
///
/// Panics if the generated program fails validation — a bug in this
/// builder, never a consequence of the caller's configuration.
pub fn build(cfg: &WorkloadConfig) -> Workload {
    let nodes = cfg.scale.pick(300, 12_000, 20_000) as usize;
    let lookups = cfg.scale.pick(160, 2_400, 9_000) as i64;
    let key_bits = 24u32;
    let key_mask = (1u64 << key_bits) - 1;

    let mut heap = HeapLayout::new();
    let pool = heap.alloc(nodes as u64 * NODE_BYTES, 4096);
    let alloc_area = heap.alloc(8 * lookups as u64 + 4096, 4096);

    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x6CC);
    let image = vec![(pool, build_tree(pool, nodes, key_mask, &mut rng))];

    let mut b = Builder::new(cfg.regs);
    // Hot state first so it keeps registers under the SMALL budget too.
    let node: Vec<_> = (0..WALKS).map(|i| b.ivar(&format!("node{i}"))).collect();
    let key: Vec<_> = (0..WALKS).map(|i| b.ivar(&format!("key{i}"))).collect();
    let root = b.ivar("root");
    let bump = b.ivar("bump");
    let k = b.ivar("k");
    let rnd = b.ivar("rnd");
    let t = b.ivar("t");
    let mask = b.ivar("mask");
    let done = b.ivar("done");
    let total = b.ivar("total");
    let acc = b.ivar("acc");
    let pay = b.ivar("pay");

    b.li(root, pool as i64);
    b.li(bump, alloc_area as i64);
    b.li(rnd, (cfg.seed | 1) as i64);
    b.li(mask, key_mask as i64);
    b.li(done, 0);
    b.li(total, lookups);
    for i in 0..WALKS {
        b.copy(node[i], root);
        emit_xorshift(&mut b, rnd, t);
        b.and(key[i], rnd, mask);
    }

    // Each iteration advances all four walks one tree level; a walk that
    // terminates records its key ("allocates" a result) and restarts with
    // a fresh one.
    let step = b.new_label();
    b.bind(step);
    for i in 0..WALKS {
        let found = b.new_label();
        let go_right = b.new_label();
        let advanced = b.new_label();
        let next = b.new_label();
        b.load(k, node[i], 0, Width::B8);
        // Per-node semantic work: read the payload (symbol attributes)
        // and fold it into a running checksum, as tree passes do.
        b.load(pay, node[i], 24, Width::B8);
        b.load(t, node[i], 32, Width::B8);
        b.xor(pay, pay, t);
        b.srl(t, pay, 7);
        b.add(acc, acc, t);
        b.br(Cond::Eq, k, key[i], found);
        b.br(Cond::Lt, k, key[i], go_right); // key > k → right subtree
        b.load(node[i], node[i], 8, Width::B8);
        b.jump(advanced);
        b.bind(go_right);
        b.load(node[i], node[i], 16, Width::B8);
        b.bind(advanced);
        b.br(Cond::Ne, node[i], 0, next);
        b.bind(found);
        // Lookup finished: record it and start another.
        b.store_postinc(key[i], bump, 8, Width::B8);
        b.add(done, done, 1);
        emit_xorshift(&mut b, rnd, t);
        b.and(key[i], rnd, mask);
        b.copy(node[i], root);
        b.bind(next);
    }
    b.br(Cond::Lt, done, total, step);

    // Spilling under a small register budget multiplies the dynamic
    // instruction count (the paper saw up to 346 % more memory ops).
    let spill_factor: u64 = if cfg.regs.int < 16 { 8 } else { 1 };
    Workload {
        name: "GCC",
        program: b.finish().expect("gcc program is well-formed"),
        mem_image: image,
        // Each lookup is bounded by tree depth ≤ ~4 log n levels.
        max_steps: spill_factor * (lookups as u64 * 64 * 16 + 50_000),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scale;
    use crate::programs::testutil::profile;

    #[test]
    fn runs_and_chases_pointers() {
        let w = build(&WorkloadConfig::new(Scale::Test));
        let (trace, mem_frac, _) = profile(&w);
        assert!(trace.len() > 5_000);
        assert!((0.2..0.55).contains(&mem_frac), "mem fraction {mem_frac}");
    }

    #[test]
    fn descend_branches_are_data_dependent() {
        let w = build(&WorkloadConfig::new(Scale::Test));
        let trace = w.uops();
        // The (k < key) branches at fixed pcs should be near 50/50.
        use std::collections::HashMap;
        let mut per_pc: HashMap<u32, (u64, u64)> = HashMap::new();
        for t in trace.iter() {
            if let Some(br) = t.branch() {
                if br.conditional {
                    let e = per_pc.entry(t.pc).or_default();
                    if br.taken {
                        e.0 += 1;
                    } else {
                        e.1 += 1;
                    }
                }
            }
        }
        let balanced = per_pc
            .values()
            .filter(|(t, n)| {
                let total = t + n;
                total > 200 && *t > total / 5 && *n > total / 5
            })
            .count();
        assert!(
            balanced >= WALKS,
            "expected a ~50/50 descend branch per walk, found {balanced}"
        );
    }

    #[test]
    fn four_walks_are_interleaved() {
        // Within one iteration the four node-key loads hit four distinct
        // tree locations: count distinct load pages in a short window.
        let w = build(&WorkloadConfig::new(Scale::Test));
        let trace = w.uops();
        let loads: Vec<u64> = trace
            .iter()
            .filter(|t| t.is_mem())
            .map(|t| t.vaddr)
            .collect();
        let mut windows_with_spread = 0;
        for win in loads.windows(8).take(2000) {
            let pages: std::collections::HashSet<u64> = win.iter().map(|a| a >> 8).collect();
            if pages.len() >= 3 {
                windows_with_spread += 1;
            }
        }
        assert!(
            windows_with_spread > 500,
            "walks should interleave: {windows_with_spread}"
        );
    }

    #[test]
    fn small_scale_tree_spans_under_tlb_reach_but_over_small_l1() {
        let w = build(&WorkloadConfig::new(Scale::Small));
        let (_, _, pages) = profile(&w);
        assert!(
            (60..200).contains(&pages),
            "tree should be ~100 pages: {pages}"
        );
    }
}
