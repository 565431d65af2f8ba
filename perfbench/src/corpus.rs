//! Seeded inputs for the three workloads.
//!
//! Every generator is a pure function of the seed: the program under test
//! only ever sees the sources, inputs and request script built here.

use ccured_batch::hash::fnv1a;
use ccured_workloads::prng::SplitMix64;
use ccured_workloads::{apache, daemons, micro, olden, ptrdist, spec, Workload};

/// Size class of a unit, reported in the input summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A `ccured_synth` self-checking unit.
    Synth,
    /// A paper-shaped source from `ccured_workloads`.
    Paper,
    /// A 2k–4k line `ijpeg_oo` unit.
    Large,
}

/// One generated unit.
#[derive(Debug, Clone)]
pub struct Unit {
    /// The workload (source, input, wrapper configuration, expected exit).
    pub w: Workload,
    /// Size class.
    pub class: Class,
}

/// Scales a size parameter by a seeded factor in [0.97, 1.03]. The jitter
/// makes each seed a different input while keeping the work per pass
/// within a few percent across seeds.
fn jitter(rng: &mut SplitMix64, base: u32) -> u32 {
    (u64::from(base) * (970 + rng.below(61)) / 1000) as u32
}

/// Programs whose work is mostly pointer loads and stores through the
/// memory model's provenance map.
pub const POINTER_HEAVY: [&str; 5] = ["micro_ptr_store", "em3d", "treeadd", "ks", "anagram"];
/// Programs whose work is mostly integer arithmetic over buffers.
pub const SCALAR_HEAVY: [&str; 4] = ["compress", "micro_seq", "micro_wild", "openssl_cast"];

/// The `exec` corpus: the eleven E13/E18 programs plus five Figure 9
/// daemons, each sized to take a similar share of a VM pass (at the E13
/// sizes `compress` alone took 60–75% of it).
pub fn exec_corpus(seed: u64) -> Vec<Workload> {
    let mut r = SplitMix64::new(seed ^ 0x6578_6563);
    vec![
        micro::safe_deref(jitter(&mut r, 70_000)),
        micro::seq_index(jitter(&mut r, 1500)),
        micro::wild_loop(jitter(&mut r, 2000)),
        micro::rtti_dispatch(jitter(&mut r, 16_000)),
        micro::ptr_store(jitter(&mut r, 750)),
        olden::em3d(jitter(&mut r, 64), 6, 16),
        olden::treeadd(14),
        ptrdist::anagram(jitter(&mut r, 200)),
        ptrdist::ks(jitter(&mut r, 80)),
        spec::compress_like(4, 3),
        spec::ijpeg_oo(48, jitter(&mut r, 40)),
        daemons::ftpd(jitter(&mut r, 500), false),
        daemons::sendmail_like(jitter(&mut r, 600), false),
        daemons::bind_like(jitter(&mut r, 200), 12),
        daemons::openssl_cast(jitter(&mut r, 280)),
        daemons::openssh_like(jitter(&mut r, 280), false),
    ]
}

/// Drops workloads whose source repeats an earlier one (the two
/// `openssh_like` daemons differ only in their input): a cold batch may
/// serve the second from the cache the first just wrote.
fn distinct(ws: Vec<Workload>) -> Vec<Workload> {
    let mut seen = std::collections::HashSet::new();
    ws.into_iter()
        .filter(|w| seen.insert(w.source.clone()))
        .collect()
}

/// Type counts of the `cure` workload's large `ijpeg_oo` units: about
/// 2.0k to 3.9k lines, with the two largest close together so the pooled
/// tail does not jump when a run fits one more pass.
const CURE_LARGE_TYPES: [u32; 5] = [52, 64, 76, 94, 100];

/// The `cure` corpus: seeded synth units from all four profiles, the
/// paper-shaped sources, and several 2k–4k line `ijpeg_oo` units.
pub fn cure_corpus(seed: u64) -> Vec<Unit> {
    let mut units = Vec::new();
    for (i, p) in ccured_synth::profiles::all().iter().enumerate() {
        for w in ccured_synth::gen::generate(p, 24, seed.wrapping_add(i as u64)) {
            units.push(Unit {
                w,
                class: Class::Synth,
            });
        }
    }
    let mut paper = ccured_workloads::suite_corpus();
    paper.extend(apache::all_modules(1));
    paper.extend(daemons::figure9_corpus());
    units.extend(distinct(paper).into_iter().map(|w| Unit {
        w,
        class: Class::Paper,
    }));
    let mut r = SplitMix64::new(seed ^ 0x6375_7265);
    for (i, t) in CURE_LARGE_TYPES.iter().enumerate() {
        let mut w = spec::ijpeg_oo(t + r.below(3) as u32, 28);
        w.name = format!("ijpeg_large{i}");
        units.push(Unit {
            w,
            class: Class::Large,
        });
    }
    units
}

/// The `recure` corpus: small units (synth plus paper daemons and Apache
/// modules) and two ~2.2k line `ijpeg_oo` units. The server cures every
/// unit with the stdlib wrapper prelude, so each request re-parses it.
pub fn recure_corpus(seed: u64) -> Vec<Unit> {
    let mut units = Vec::new();
    for (i, p) in ccured_synth::profiles::all().iter().enumerate() {
        for w in ccured_synth::gen::generate(p, 12, seed.wrapping_add(100 + i as u64)) {
            units.push(Unit {
                w,
                class: Class::Synth,
            });
        }
    }
    let mut paper = apache::all_modules(1);
    paper.extend(
        daemons::figure9_corpus()
            .into_iter()
            .filter(|w| w.name != "bind"),
    );
    units.extend(distinct(paper).into_iter().map(|w| Unit {
        w,
        class: Class::Paper,
    }));
    let mut r = SplitMix64::new(seed ^ 0x7265_6375);
    for i in 0..2 {
        let mut w = spec::ijpeg_oo(55 + r.below(3) as u32, 28);
        w.name = format!("ijpeg_large{i}");
        units.push(Unit {
            w,
            class: Class::Large,
        });
    }
    units
}

/// What one `recure` request does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqKind {
    /// Rewrite one function body of a small unit, then re-cure it.
    Edit,
    /// Re-request a small unit unchanged (a whole-unit cache hit).
    Unchanged,
    /// Rewrite one function body of a large unit, then re-cure it.
    Large,
}

impl ReqKind {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            ReqKind::Edit => "edit",
            ReqKind::Unchanged => "unchanged",
            ReqKind::Large => "large",
        }
    }
}

/// One scripted request: which unit, and which function the edit rewrites
/// (as a draw to be reduced modulo the unit's function count).
#[derive(Debug, Clone, Copy)]
pub struct Req {
    /// The request kind.
    pub kind: ReqKind,
    /// Index into the corpus.
    pub unit: usize,
    /// Function draw.
    pub func: u64,
}

/// Requests per script block. Every block holds exactly
/// `BLOCK_MIX` of each kind, in seeded order, so blocks are comparable.
pub const BLOCK: usize = 20;
/// Edits, unchanged re-requests and large-unit edits per block.
pub const BLOCK_MIX: (usize, usize, usize) = (15, 4, 1);

/// The seeded closed-loop request script: `blocks` blocks of [`BLOCK`]
/// requests.
pub fn request_script(seed: u64, units: &[Unit], blocks: usize) -> Vec<Req> {
    let small: Vec<usize> = (0..units.len())
        .filter(|&i| units[i].class != Class::Large)
        .collect();
    let large: Vec<usize> = (0..units.len())
        .filter(|&i| units[i].class == Class::Large)
        .collect();
    let mut r = SplitMix64::new(seed ^ 0x7363_7269);
    let mut script = Vec::with_capacity(blocks * BLOCK);
    for _ in 0..blocks {
        let (e, u, l) = BLOCK_MIX;
        let mut kinds: Vec<ReqKind> = std::iter::repeat_n(ReqKind::Edit, e)
            .chain(std::iter::repeat_n(ReqKind::Unchanged, u))
            .chain(std::iter::repeat_n(ReqKind::Large, l))
            .collect();
        for i in (1..kinds.len()).rev() {
            kinds.swap(i, r.below(i as u64 + 1) as usize);
        }
        for kind in kinds {
            let pool = if kind == ReqKind::Large {
                &large
            } else {
                &small
            };
            script.push(Req {
                kind,
                unit: *r.pick(pool),
                func: r.next_u64(),
            });
        }
    }
    script
}

/// FNV-1a fingerprint of every generated source and input, in order.
pub fn fingerprint<'a>(ws: impl IntoIterator<Item = &'a Workload>) -> u64 {
    let mut bytes = Vec::new();
    for w in ws {
        bytes.extend_from_slice(w.name.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(w.source.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&w.input);
        bytes.push(u8::from(w.with_wrappers));
    }
    fnv1a(&bytes)
}

/// FNV-1a fingerprint of a request script.
pub fn script_fingerprint(script: &[Req]) -> u64 {
    let text: String = script
        .iter()
        .map(|r| format!("{} {} {}\n", r.kind.label(), r.unit, r.func))
        .collect();
    fnv1a(text.as_bytes())
}

/// Function-body insertion points of a unit: the byte offset just after
/// the opening brace of each function definition.
pub fn body_offsets(source: &str) -> Vec<usize> {
    let tu = ccured_ast::parse_translation_unit(source).expect("generated unit parses");
    tu.decls
        .iter()
        .filter_map(|d| match d {
            ccured_ast::ast::ExtDecl::Function(f) => {
                let from = f.declarator.span.hi as usize;
                source[from..].find('{').map(|i| from + i + 1)
            }
            _ => None,
        })
        .collect()
}

/// The unit's source with the body of every function `f` whose
/// `edits[f]` is nonzero rewritten to variant `edits[f]`. The rewrite adds
/// one local definition at the top of the body, which changes that
/// function and nothing else.
pub fn render(source: &str, offsets: &[usize], edits: &[u64]) -> String {
    let mut out = String::with_capacity(source.len() + 64 * edits.len());
    let mut last = 0;
    for (f, &off) in offsets.iter().enumerate() {
        if edits[f] == 0 {
            continue;
        }
        out.push_str(&source[last..off]);
        out.push_str(&format!(" int perfbench_edit = {};", edits[f]));
        last = off;
    }
    out.push_str(&source[last..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = fingerprint(cure_corpus(7).iter().map(|u| &u.w));
        let b = fingerprint(cure_corpus(7).iter().map(|u| &u.w));
        let c = fingerprint(cure_corpus(8).iter().map(|u| &u.w));
        assert_eq!(a, b);
        assert_ne!(a, c);
        let units = recure_corpus(7);
        assert_eq!(
            script_fingerprint(&request_script(7, &units, 4)),
            script_fingerprint(&request_script(7, &units, 4))
        );
    }

    #[test]
    fn script_blocks_have_the_fixed_mix() {
        let units = recure_corpus(3);
        let script = request_script(3, &units, 5);
        for block in script.chunks(BLOCK) {
            let n = |k| block.iter().filter(|r| r.kind == k).count();
            assert_eq!(
                (n(ReqKind::Edit), n(ReqKind::Unchanged), n(ReqKind::Large)),
                BLOCK_MIX
            );
        }
    }

    #[test]
    fn edits_touch_one_function_body() {
        let src =
            "int f(int *p) { return *p; }\nint main(void) { int x; x = 1; return f(&x) - 1; }\n";
        let offs = body_offsets(src);
        assert_eq!(offs.len(), 2);
        let edited = render(src, &offs, &[0, 9]);
        assert!(edited.contains("int main(void) { int perfbench_edit = 9;"));
        assert!(edited.starts_with("int f(int *p) { return *p; }"));
        assert_eq!(render(src, &offs, &[0, 0]), src);
    }
}
