//! Property tests for the memory model (the ground-truth substrate) and
//! the Figure 10 representation invariants maintained by the interpreter.

use ccured_rt::mem::{AllocKind, Memory, Pointer};
use ccured_rt::value::PtrVal;
use ccured_rt::RtError;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn int_roundtrip(off in 0u64..56, size in prop::sample::select(vec![1u64, 2, 4, 8]), v in any::<i64>()) {
        let mut m = Memory::new();
        let a = m.alloc(64, AllocKind::Heap).unwrap();
        let p = Pointer { alloc: a, offset: off as i64 };
        m.write_int(p, size, v as i128).unwrap();
        let back = m.read_int(p, size, true).unwrap();
        // The readback is the truncation of v to `size` bytes.
        let bits = size * 8;
        let expect = if bits >= 64 {
            v as i128
        } else {
            let shift = 128 - bits as u32;
            ((v as i128) << shift) >> shift
        };
        prop_assert_eq!(back, expect);
    }

    #[test]
    fn oob_never_succeeds(off in 56i64..80, size in prop::sample::select(vec![1u64, 2, 4, 8])) {
        let mut m = Memory::new();
        let a = m.alloc(60, AllocKind::Heap).unwrap();
        let p = Pointer { alloc: a, offset: off };
        let r = m.write_int(p, size, 1);
        if (off as u64) + size <= 60 {
            prop_assert!(r.is_ok());
        } else {
            let oob = matches!(r, Err(RtError::OutOfBounds { .. }));
            prop_assert!(oob);
        }
    }

    #[test]
    fn pointer_tags_track_overwrites(slot in 0u64..7, clobber in 0u64..56) {
        let mut m = Memory::new();
        let a = m.alloc(64, AllocKind::Heap).unwrap();
        let b = m.alloc(8, AllocKind::Heap).unwrap();
        let p = Pointer { alloc: a, offset: (slot * 8) as i64 };
        m.write_ptr(p, PtrVal::Safe(Pointer { alloc: b, offset: 0 }), 8).unwrap();
        prop_assert!(m.has_ptr_tag(p));
        // Clobbering any byte of the slot clears the tag; elsewhere it stays.
        m.write_int(Pointer { alloc: a, offset: clobber as i64 }, 1, 0x5A).unwrap();
        let overlaps = clobber + 1 > slot * 8 && clobber < slot * 8 + 8;
        prop_assert_eq!(!m.has_ptr_tag(p), overlaps);
    }

    #[test]
    fn copy_region_preserves_everything(
        src_off in 0u64..16,
        dst_off in 32u64..48,
        len in 1u64..16,
    ) {
        let mut m = Memory::new();
        let a = m.alloc(64, AllocKind::Heap).unwrap();
        let t = m.alloc(8, AllocKind::Heap).unwrap();
        // Fill the source with a known pattern + one pointer at its start
        // (if it fits on a word boundary).
        for i in 0..16u64 {
            m.write_int(Pointer { alloc: a, offset: (src_off + i).min(63) as i64 }, 1, i as i128).ok();
        }
        let has_ptr = len >= 8 && src_off % 8 == 0;
        if has_ptr {
            m.write_ptr(
                Pointer { alloc: a, offset: src_off as i64 },
                PtrVal::Safe(Pointer { alloc: t, offset: 4 }),
                8,
            ).unwrap();
        }
        m.copy_region(
            Pointer { alloc: a, offset: dst_off as i64 },
            Pointer { alloc: a, offset: src_off as i64 },
            len,
        ).unwrap();
        if has_ptr {
            let v = m.read_ptr(Pointer { alloc: a, offset: dst_off as i64 }, 8).unwrap();
            prop_assert_eq!(v, PtrVal::Safe(Pointer { alloc: t, offset: 4 }));
        } else {
            // Bytes must match.
            let sb = m.read_bytes(Pointer { alloc: a, offset: src_off as i64 }, len).unwrap().to_vec();
            let db = m.read_bytes(Pointer { alloc: a, offset: dst_off as i64 }, len).unwrap().to_vec();
            prop_assert_eq!(sb, db);
        }
    }

    #[test]
    fn freed_memory_never_readable(size in 1u64..64) {
        let mut m = Memory::new();
        let a = m.alloc(size, AllocKind::Heap).unwrap();
        let p = Pointer { alloc: a, offset: 0 };
        m.write_int(p, 1, 1).unwrap();
        m.free(a).unwrap();
        let uaf_r = matches!(m.read_int(p, 1, false), Err(RtError::UseAfterFree));
        prop_assert!(uaf_r);
        let uaf_w = matches!(m.write_int(p, 1, 2), Err(RtError::UseAfterFree));
        prop_assert!(uaf_w);
        let dbl = matches!(m.free(a), Err(RtError::DoubleFree));
        prop_assert!(dbl);
    }

    #[test]
    fn va_roundtrip_any_offset(off in 0i64..4096) {
        let mut m = Memory::new();
        let a = m.alloc(4096, AllocKind::Global).unwrap();
        let p = Pointer { alloc: a, offset: off };
        let va = m.va_of(&PtrVal::Safe(p));
        prop_assert_eq!(m.ptr_of_va(va), Some(p));
    }

    #[test]
    fn seq_offsets_preserve_bounds(lo in 0i64..8, hi in 16i64..32, moves in prop::collection::vec(-8i64..8, 0..8)) {
        let mut m = Memory::new();
        let a = m.alloc(64, AllocKind::Heap).unwrap();
        let mut v = PtrVal::Seq { p: Pointer { alloc: a, offset: lo }, lo, hi };
        for d in moves {
            v = v.offset_by(d);
            match v {
                PtrVal::Seq { lo: l2, hi: h2, .. } => {
                    prop_assert_eq!(l2, lo, "lower bound is immutable");
                    prop_assert_eq!(h2, hi, "upper bound is immutable");
                }
                other => prop_assert!(false, "representation changed: {other:?}"),
            }
        }
    }
}

/// The memory model's semantics written the direct way, as a reference for
/// the shadow-byte implementation: per allocation, bytes, one init flag per
/// byte and a `BTreeMap` of stored pointers; a write drops every pointer
/// whose 8-byte footprint it overlaps; a copy snapshots the source first.
mod model {
    use ccured_rt::mem::{AllocId, AllocKind, Pointer};
    use ccured_rt::value::PtrVal;
    use ccured_rt::RtError;
    use std::collections::BTreeMap;

    pub struct Alloc {
        pub bytes: Vec<u8>,
        pub init: Vec<bool>,
        pub tags: BTreeMap<u64, PtrVal>,
        pub kind: AllocKind,
        pub live: bool,
    }

    #[derive(Default)]
    pub struct Memory {
        pub allocs: Vec<Alloc>,
        pub uaf_traps: u64,
    }

    pub fn va_of(v: &PtrVal) -> u64 {
        match v {
            PtrVal::Null => 0,
            PtrVal::IntVal(x) => *x,
            PtrVal::Fn(_) => unreachable!("no function pointers stored"),
            PtrVal::Safe(p)
            | PtrVal::Seq { p, .. }
            | PtrVal::Wild { p, .. }
            | PtrVal::Rtti { p, .. } => {
                ((p.alloc.0 as u64 + 1) << 32).wrapping_add(p.offset as u64 & 0xffff_ffff)
            }
        }
    }

    impl Memory {
        pub fn alloc(&mut self, size: usize, kind: AllocKind) -> AllocId {
            self.allocs.push(Alloc {
                bytes: vec![0; size],
                init: vec![false; size],
                tags: BTreeMap::new(),
                kind,
                live: true,
            });
            AllocId(self.allocs.len() as u32 - 1)
        }

        fn check(&mut self, p: Pointer, size: u64) -> Result<usize, RtError> {
            let Some(a) = self.allocs.get(p.alloc.0 as usize) else {
                return Err(RtError::InvalidPointer("dangling allocation id".into()));
            };
            if !a.live {
                self.uaf_traps += 1;
                return Err(match a.kind {
                    AllocKind::Heap => RtError::UseAfterFree,
                    AllocKind::Stack { .. } => RtError::UseAfterReturn,
                    AllocKind::Global => RtError::InvalidPointer("dead global".into()),
                });
            }
            let alloc_size = a.bytes.len() as u64;
            if p.offset < 0 || (p.offset as u64).saturating_add(size) > alloc_size {
                return Err(RtError::OutOfBounds {
                    offset: p.offset,
                    size,
                    alloc_size,
                });
            }
            Ok(p.offset as usize)
        }

        fn clear_overlap(&mut self, id: AllocId, off: u64, size: u64) {
            self.allocs[id.0 as usize]
                .tags
                .retain(|&o, _| o + 8 <= off || o >= off + size);
        }

        pub fn read_int(&mut self, p: Pointer, size: u64, signed: bool) -> Result<i128, RtError> {
            let off = self.check(p, size)?;
            let a = &self.allocs[p.alloc.0 as usize];
            let n = size as usize;
            if a.init[off..off + n].iter().any(|&b| !b) {
                return Err(RtError::UninitRead);
            }
            let mut raw: u128 = 0;
            for i in (0..n).rev() {
                raw = raw << 8 | a.bytes[off + i] as u128;
            }
            let bits = 8 * n as u32;
            Ok(if signed && bits < 128 && raw >> (bits - 1) & 1 == 1 {
                (raw | (u128::MAX << bits)) as i128
            } else {
                raw as i128
            })
        }

        pub fn write_int(&mut self, p: Pointer, size: u64, v: i128) -> Result<(), RtError> {
            let off = self.check(p, size)?;
            let a = &mut self.allocs[p.alloc.0 as usize];
            for i in 0..size as usize {
                a.bytes[off + i] = (v >> (8 * i)) as u8;
                a.init[off + i] = true;
            }
            self.clear_overlap(p.alloc, off as u64, size);
            Ok(())
        }

        pub fn write_ptr(&mut self, p: Pointer, v: PtrVal) -> Result<(), RtError> {
            self.write_int(p, 8, va_of(&v) as i128)?;
            if !matches!(v, PtrVal::Null | PtrVal::IntVal(_)) {
                self.allocs[p.alloc.0 as usize]
                    .tags
                    .insert(p.offset as u64, v);
            }
            Ok(())
        }

        pub fn read_ptr(&mut self, p: Pointer) -> Result<PtrVal, RtError> {
            self.check(p, 8)?;
            if let Some(v) = self.allocs[p.alloc.0 as usize].tags.get(&(p.offset as u64)) {
                return Ok(*v);
            }
            Ok(match self.read_int(p, 8, false)? as u64 {
                0 => PtrVal::Null,
                x => PtrVal::IntVal(x),
            })
        }

        pub fn has_ptr_tag(&self, p: Pointer) -> bool {
            self.allocs
                .get(p.alloc.0 as usize)
                .is_some_and(|a| a.tags.contains_key(&(p.offset as u64)))
        }

        pub fn write_bytes(&mut self, p: Pointer, data: &[u8]) -> Result<(), RtError> {
            let off = self.check(p, data.len() as u64)?;
            let a = &mut self.allocs[p.alloc.0 as usize];
            a.bytes[off..off + data.len()].copy_from_slice(data);
            a.init[off..off + data.len()].fill(true);
            self.clear_overlap(p.alloc, off as u64, data.len() as u64);
            Ok(())
        }

        pub fn copy_region(
            &mut self,
            dst: Pointer,
            src: Pointer,
            size: u64,
        ) -> Result<(), RtError> {
            let so = self.check(src, size)?;
            let n = size as usize;
            let a = &self.allocs[src.alloc.0 as usize];
            let bytes = a.bytes[so..so + n].to_vec();
            let init = a.init[so..so + n].to_vec();
            let tags: Vec<(u64, PtrVal)> = a
                .tags
                .range(so as u64..(so + n) as u64)
                .map(|(o, v)| (o - so as u64, *v))
                .collect();
            let d_o = self.check(dst, size)?;
            let a = &mut self.allocs[dst.alloc.0 as usize];
            a.bytes[d_o..d_o + n].copy_from_slice(&bytes);
            a.init[d_o..d_o + n].copy_from_slice(&init);
            self.clear_overlap(dst.alloc, d_o as u64, size);
            let a = &mut self.allocs[dst.alloc.0 as usize];
            for (o, v) in tags {
                a.tags.insert(d_o as u64 + o, v);
            }
            Ok(())
        }

        pub fn mark_init(&mut self, id: AllocId) {
            self.allocs[id.0 as usize].init.fill(true);
        }

        pub fn free(&mut self, id: AllocId) -> Result<(), RtError> {
            let a = &mut self.allocs[id.0 as usize];
            if !matches!(a.kind, AllocKind::Heap) {
                return Err(RtError::FreeOfNonHeap);
            }
            if !a.live {
                return Err(RtError::DoubleFree);
            }
            a.live = false;
            Ok(())
        }

        pub fn kill_frame(&mut self, frame: u64) {
            for a in &mut self.allocs {
                if a.kind == (AllocKind::Stack { frame }) {
                    a.live = false;
                }
            }
        }
    }
}

/// The allocations every model-based case starts from: odd and even sizes,
/// all four placements, two nested frames; index 6 names no allocation.
const SHAPES: [(usize, AllocKind); 6] = [
    (40, AllocKind::Heap),
    (48, AllocKind::Heap),
    (33, AllocKind::Heap),
    (24, AllocKind::Global),
    (36, AllocKind::Stack { frame: 1 }),
    (20, AllocKind::Stack { frame: 2 }),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random sequences of every mutating operation, at unaligned,
    /// overlapping and out-of-bounds offsets, agree with the reference
    /// model on every read, tag query, error and trap count.
    #[test]
    fn memory_matches_the_reference_model(
        ops in prop::collection::vec(
            (0u8..40, 0u32..7, -2i64..34, 0u32..7, -2i64..34, any::<u64>()),
            1..64,
        ),
    ) {
        let mut m = Memory::new();
        let mut r = model::Memory::default();
        for &(size, kind) in &SHAPES {
            let id = m.alloc(size as u64, kind).unwrap();
            prop_assert_eq!(id, r.alloc(size, kind));
        }
        let mut frames = vec![1u64, 2];
        for (step, &(op, a, off, b, off2, x)) in ops.iter().enumerate() {
            let p = Pointer { alloc: ccured_rt::AllocId(a), offset: off };
            let q = Pointer { alloc: ccured_rt::AllocId(b), offset: off2 };
            let id = ccured_rt::AllocId(a % 6);
            let what = format!("step {step}: op {op} at {p:?}, {q:?}, x={x:#x}");
            match op {
                0..=7 => {
                    let size = [1u64, 2, 4, 8, 3, 16][(x % 6) as usize];
                    let v = x as i64 as i128;
                    prop_assert_eq!(m.write_int(p, size, v), r.write_int(p, size, v), "{}", what);
                }
                8 | 9 => {
                    let size = if x & 1 == 0 { 4 } else { 8 };
                    let v = (x as i64 >> 8) as f64 / 7.0;
                    let bits = match size {
                        4 => (v as f32).to_bits() as i128,
                        _ => v.to_bits() as i128,
                    };
                    prop_assert_eq!(m.write_float(p, size, v), r.write_int(p, size, bits), "{}", what);
                }
                10..=17 => {
                    let v = match x % 8 {
                        0 => PtrVal::Null,
                        1 => PtrVal::IntVal(x | 1),
                        2 | 3 => PtrVal::Seq { p: q, lo: 0, hi: off2.max(0) + 8 },
                        4 => PtrVal::Wild { p: q, lo: 0, hi: 64 },
                        _ => PtrVal::Safe(q),
                    };
                    prop_assert_eq!(m.write_ptr(p, v, 8), r.write_ptr(p, v), "{}", what);
                }
                18..=20 => {
                    let data: Vec<u8> = (0..x % 12).map(|i| (x >> (i % 8 * 8)) as u8).collect();
                    prop_assert_eq!(m.write_bytes(p, &data), r.write_bytes(p, &data), "{}", what);
                }
                21..=32 => {
                    // Ops 26-32 copy within one allocation, overlapping
                    // whenever the offsets are closer than the length.
                    let src = if op >= 26 { Pointer { alloc: p.alloc, offset: off2 } } else { q };
                    let len = (x >> 8) % 24;
                    prop_assert_eq!(m.copy_region(p, src, len), r.copy_region(p, src, len), "{}", what);
                }
                33 | 34 => {
                    m.mark_init(id);
                    r.mark_init(id);
                }
                35 => prop_assert_eq!(m.free(id), r.free(id), "{}", what),
                36 => {
                    // Frames die innermost first.
                    if let Some(f) = frames.pop() {
                        m.kill_frame(f);
                        r.kill_frame(f);
                    }
                }
                _ => {}
            }
            for (i, &(size, _)) in SHAPES.iter().chain(&[(0, AllocKind::Heap)]).enumerate() {
                for offset in -1..=size as i64 + 1 {
                    let at = Pointer { alloc: ccured_rt::AllocId(i as u32), offset };
                    for (size, signed) in [(1, false), (2, true), (3, true), (4, true), (8, false)] {
                        prop_assert_eq!(
                            m.read_int(at, size, signed),
                            r.read_int(at, size, signed),
                            "{}; read_int({:?}, {})", what, at, size
                        );
                    }
                    prop_assert_eq!(m.read_ptr(at, 8), r.read_ptr(at), "{}; read_ptr({:?})", what, at);
                    prop_assert_eq!(m.has_ptr_tag(at), r.has_ptr_tag(at), "{}; has_ptr_tag({:?})", what, at);
                }
            }
            prop_assert_eq!(m.uaf_traps(), r.uaf_traps, "{}", what);
        }
    }
}
