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
