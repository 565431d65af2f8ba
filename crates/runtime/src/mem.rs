//! The byte-accurate memory model (a miniature Miri).
//!
//! Memory is a set of allocations; a [`Pointer`] is an allocation id plus a
//! byte offset (which may stray out of bounds until dereferenced — C pointer
//! arithmetic semantics). Each allocation tracks:
//!
//! * raw bytes,
//! * one shadow byte per byte, Purify-style: an `INIT` bit (ground truth
//!   for uninitialized reads) and a `TAG` bit — the WILD **tag bitmap** of
//!   paper Figure 10, set at the first byte of every stored pointer value,
//! * a provenance map holding the pointer stored at each tagged offset,
//!   consulted only when the tag bit is set,
//! * liveness (frees and returned stack frames are detected as ground-truth
//!   errors). A dead allocation drops its bytes and shadow; it keeps its
//!   size, placement, key and provenance entries, so every later error,
//!   tag query and WILD extent reads as before.
//!
//! Pointer↔integer round trips use stable *virtual addresses*
//! (`(alloc+1) << 32 | offset`).

use crate::err::RtError;
use crate::value::PtrVal;
use ccured_cil::fxhash::FxHashMap;
use std::cell::Cell;

/// Shadow bit: the byte is initialized.
const INIT: u8 = 1;
/// Shadow bit: a stored pointer starts at this byte (its value is in the
/// provenance map).
const TAG: u8 = 2;
/// The bytes a stored pointer covers for the tag-clearing rule: a write
/// that overlaps `[o, o + 8)` drops the tag at `o`, whatever the word size.
const PTR_FOOTPRINT: usize = 8;

/// Identifier of one allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AllocId(pub u32);

/// A memory address: allocation plus byte offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pointer {
    /// The allocation.
    pub alloc: AllocId,
    /// Byte offset; may be temporarily out of bounds.
    pub offset: i64,
}

impl Pointer {
    /// Returns this pointer moved by `delta` bytes.
    pub fn offset_by(self, delta: i64) -> Pointer {
        Pointer {
            alloc: self.alloc,
            offset: self.offset.wrapping_add(delta),
        }
    }
}

/// Where an allocation lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocKind {
    /// Heap (malloc family).
    Heap,
    /// Stack, tagged with its frame's sequence number.
    Stack {
        /// Frame sequence number (monotonic per call).
        frame: u64,
    },
    /// A global or string literal.
    Global,
}

/// One allocation.
#[derive(Debug, Clone)]
pub struct Allocation {
    /// The bytes; empty once dead.
    bytes: Box<[u8]>,
    /// One `INIT | TAG` shadow byte per byte; empty once dead.
    shadow: Box<[u8]>,
    /// The pointer stored at each tagged offset.
    prov: FxHashMap<u64, PtrVal>,
    size: u64,
    /// Placement of the allocation.
    pub kind: AllocKind,
    /// False after free / frame return.
    pub live: bool,
    /// Temporal capability key (the lock of the lock-and-key scheme):
    /// a monotonic generation stamped at allocation, zeroed when the
    /// allocation's lifetime ends (free, frame return). A pointer's key
    /// matches iff this is still the generation it was stamped with.
    key: u64,
}

impl Allocation {
    /// Size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// The allocation's current capability key (0 after revocation).
    pub fn key(&self) -> u64 {
        self.key
    }

    /// Ends the allocation's lifetime and releases its buffers.
    fn die(&mut self) {
        self.live = false;
        self.key = 0;
        self.bytes = Box::default();
        self.shadow = Box::default();
    }

    /// The `n`-byte little-endian integer at `off`, sign-extended when
    /// `signed`, or [`RtError::UninitRead`] unless every byte is
    /// initialized. The caller has validated the range.
    #[inline(always)]
    fn load_int(&self, off: usize, n: usize, signed: bool) -> Result<i128, RtError> {
        let (b, s) = (&self.bytes[off..off + n], &self.shadow[off..off + n]);
        let (raw, init) = match n {
            1 => (b[0] as u64, s[0] & INIT != 0),
            2 => (
                u16::from_le_bytes([b[0], b[1]]) as u64,
                u16::from_ne_bytes([s[0], s[1]]) & 0x0101 == 0x0101,
            ),
            4 => (
                u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as u64,
                u32::from_ne_bytes([s[0], s[1], s[2], s[3]]) & 0x0101_0101 == 0x0101_0101,
            ),
            8 => (
                u64::from_le_bytes(b.try_into().expect("8 bytes")),
                u64::from_ne_bytes(s.try_into().expect("8 bytes")) & 0x0101_0101_0101_0101
                    == 0x0101_0101_0101_0101,
            ),
            _ => return self.load_int_wide(off, n, signed),
        };
        if !init {
            return Err(RtError::UninitRead);
        }
        let shift = 64 - 8 * n as u32;
        Ok(if signed {
            (((raw << shift) as i64) >> shift) as i128
        } else {
            raw as i128
        })
    }

    /// [`Allocation::load_int`] for the widths the machine has no
    /// integer kind of (up to 16 bytes).
    #[cold]
    fn load_int_wide(&self, off: usize, n: usize, signed: bool) -> Result<i128, RtError> {
        if !self.shadow[off..off + n].iter().all(|&s| s & INIT != 0) {
            return Err(RtError::UninitRead);
        }
        let mut buf = [0u8; 16];
        buf[..n].copy_from_slice(&self.bytes[off..off + n]);
        let raw = u128::from_le_bytes(buf);
        let shift = 128 - n as u32 * 8;
        Ok(if signed {
            ((raw << shift) as i128) >> shift
        } else {
            raw as i128
        })
    }

    /// Stores the low `n` bytes of `v` at `off`, marking them initialized.
    /// The caller has validated the range and cleared the tags it covers.
    #[inline(always)]
    fn store_int(&mut self, off: usize, n: usize, v: i128) {
        match n {
            1 => {
                self.bytes[off] = v as u8;
                self.shadow[off] = INIT;
            }
            2 => {
                self.bytes[off..off + 2].copy_from_slice(&(v as u16).to_le_bytes());
                self.shadow[off..off + 2].copy_from_slice(&[INIT; 2]);
            }
            4 => {
                self.bytes[off..off + 4].copy_from_slice(&(v as u32).to_le_bytes());
                self.shadow[off..off + 4].copy_from_slice(&[INIT; 4]);
            }
            8 => {
                self.bytes[off..off + 8].copy_from_slice(&(v as u64).to_le_bytes());
                self.shadow[off..off + 8].copy_from_slice(&[INIT; 8]);
            }
            _ => {
                let raw = (v as u128).to_le_bytes();
                self.bytes[off..off + n].copy_from_slice(&raw[..n]);
                self.shadow[off..off + n].fill(INIT);
            }
        }
    }

    /// Drops every tag whose pointer footprint overlaps `[off, off + n)`
    /// (the WILD tag-clearing rule), scanning the `n + 7` shadow bytes
    /// such a pointer can start at.
    #[inline(always)]
    fn clear_tags(&mut self, off: usize, n: usize) {
        if !self.prov.is_empty() {
            self.clear_tags_in(off.saturating_sub(PTR_FOOTPRINT - 1), off + n);
        }
    }

    fn clear_tags_in(&mut self, lo: usize, hi: usize) {
        let hi = hi.min(self.shadow.len());
        for o in lo..hi {
            if self.shadow[o] & TAG != 0 {
                self.shadow[o] &= !TAG;
                self.prov.remove(&(o as u64));
            }
        }
    }

    /// Records the pointer `v` stored at `off`.
    fn set_tag(&mut self, off: usize, v: PtrVal) {
        self.shadow[off] |= TAG;
        self.prov.insert(off as u64, v);
    }

    /// The tagged pointers starting in `[off, off + n)`, as (offset from
    /// `off`, pointer), in offset order.
    fn tags_in(&self, off: usize, n: usize) -> Vec<(usize, PtrVal)> {
        if self.prov.is_empty() {
            return Vec::new();
        }
        (off..off + n)
            .filter(|&o| self.shadow[o] & TAG != 0)
            .filter_map(|o| Some((o - off, *self.prov.get(&(o as u64))?)))
            .collect()
    }
}

/// The whole memory.
#[derive(Debug)]
pub struct Memory {
    allocs: Vec<Allocation>,
    /// Total bytes currently live (heap accounting for reports).
    pub live_bytes: u64,
    /// High-water mark of `live_bytes` over the run.
    pub peak_live_bytes: u64,
    /// Sandbox cap on total live bytes (see [`crate::Limits`]).
    heap_limit: u64,
    /// Live stack allocations as `(frame seq, id)`, in allocation order.
    /// Frames die LIFO and only the innermost frame allocates, so a frame's
    /// entries are always a suffix — `kill_frame` pops them off the tail
    /// instead of scanning every allocation ever made.
    stack_index: Vec<(u64, AllocId)>,
    /// Monotonic generation counter for temporal capability keys.
    next_key: u64,
    /// Ground-truth machine traps on dead memory (use-after-free /
    /// use-after-return). The temporal experiments assert this stays zero:
    /// an emitted `CHECK_TEMPORAL` must fire *before* the abstract machine
    /// would have trapped. A `Cell` because the read path is `&self`.
    uaf_traps: Cell<u64>,
}

impl Default for Memory {
    fn default() -> Self {
        Memory {
            allocs: Vec::new(),
            live_bytes: 0,
            peak_live_bytes: 0,
            heap_limit: u64::MAX,
            stack_index: Vec::new(),
            next_key: 1,
            uaf_traps: Cell::new(0),
        }
    }
}

/// Maximum size of one allocation (runaway guard).
const MAX_ALLOC: u64 = 1 << 30;

impl Memory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Memory::default()
    }

    /// Caps the total live bytes; further allocations past the cap fail
    /// gracefully with `RtError::LimitExceeded { limit: "heap_limit" }`.
    pub fn set_heap_limit(&mut self, bytes: u64) {
        self.heap_limit = bytes;
    }

    /// Allocates `size` zero-filled-but-uninitialized bytes.
    ///
    /// # Errors
    ///
    /// Fails with [`RtError::Unsupported`] for absurd sizes and with
    /// [`RtError::LimitExceeded`] when the sandbox heap cap would be passed.
    pub fn alloc(&mut self, size: u64, kind: AllocKind) -> Result<AllocId, RtError> {
        if size > MAX_ALLOC {
            return Err(RtError::Unsupported(format!("allocation of {size} bytes")));
        }
        if self.live_bytes.saturating_add(size) > self.heap_limit {
            return Err(RtError::LimitExceeded {
                limit: "heap_limit",
                detail: format!(
                    "allocation of {size} bytes would exceed the {}-byte heap cap \
                     ({} bytes live)",
                    self.heap_limit, self.live_bytes
                ),
            });
        }
        let id = AllocId(self.allocs.len() as u32);
        let key = self.next_key;
        self.next_key += 1;
        self.allocs.push(Allocation {
            bytes: vec![0; size as usize].into(),
            shadow: vec![0; size as usize].into(),
            prov: FxHashMap::default(),
            size,
            kind,
            live: true,
            key,
        });
        if let AllocKind::Stack { frame } = kind {
            self.stack_index.push((frame, id));
        }
        self.live_bytes += size;
        self.peak_live_bytes = self.peak_live_bytes.max(self.live_bytes);
        Ok(id)
    }

    /// Marks every byte initialized (calloc, library-produced data).
    pub fn mark_init(&mut self, id: AllocId) {
        for s in self.allocs[id.0 as usize].shadow.iter_mut() {
            *s |= INIT;
        }
    }

    /// The allocation behind an id.
    pub fn allocation(&self, id: AllocId) -> &Allocation {
        &self.allocs[id.0 as usize]
    }

    /// Bytes held by the byte and shadow buffers of every allocation, live
    /// or dead.
    #[cfg(test)]
    pub(crate) fn buffer_bytes(&self) -> u64 {
        self.allocs
            .iter()
            .map(|a| (a.bytes.len() + a.shadow.len()) as u64)
            .sum()
    }

    /// Frees a heap allocation.
    ///
    /// # Errors
    ///
    /// [`RtError::FreeOfNonHeap`] when freeing stack or global memory;
    /// [`RtError::DoubleFree`] when the allocation was already freed.
    pub fn free(&mut self, id: AllocId) -> Result<(), RtError> {
        let a = &mut self.allocs[id.0 as usize];
        if !matches!(a.kind, AllocKind::Heap) {
            return Err(RtError::FreeOfNonHeap);
        }
        if !a.live {
            return Err(RtError::DoubleFree);
        }
        a.die();
        self.live_bytes = self.live_bytes.saturating_sub(a.size);
        Ok(())
    }

    /// Revokes a heap allocation's temporal capability key without freeing
    /// the bytes — `free` under `--temporal` with GC semantics. The memory
    /// stays live for the abstract machine (it never traps), but every
    /// later lock-and-key comparison on a pointer into it fails.
    ///
    /// # Errors
    ///
    /// [`RtError::FreeOfNonHeap`] for stack/global memory;
    /// [`RtError::DoubleFree`] when the key was already revoked.
    pub fn temporal_revoke(&mut self, id: AllocId) -> Result<(), RtError> {
        let a = self
            .allocs
            .get_mut(id.0 as usize)
            .ok_or_else(|| RtError::InvalidPointer("dangling allocation id".into()))?;
        if !matches!(a.kind, AllocKind::Heap) {
            return Err(RtError::FreeOfNonHeap);
        }
        if a.key == 0 || !a.live {
            return Err(RtError::DoubleFree);
        }
        a.key = 0;
        Ok(())
    }

    /// Whether the allocation's capability key is still valid: stamped at
    /// allocation and not yet revoked by `free`/`temporal_revoke` or frame
    /// death. Allocation ids are never reused, so validity is exactly
    /// "the key generation stamped into the pointer still unlocks it".
    pub fn temporal_valid(&self, id: AllocId) -> bool {
        self.allocs
            .get(id.0 as usize)
            .is_some_and(|a| a.live && a.key != 0)
    }

    /// Machine traps on dead memory so far (see `uaf_traps` field docs).
    pub fn uaf_traps(&self) -> u64 {
        self.uaf_traps.get()
    }

    /// Kills every stack allocation belonging to `frame` (function return).
    pub fn kill_frame(&mut self, frame: u64) {
        while let Some(&(fr, id)) = self.stack_index.last() {
            if fr != frame {
                break;
            }
            self.stack_index.pop();
            let a = &mut self.allocs[id.0 as usize];
            if a.live {
                a.die();
                self.live_bytes = self.live_bytes.saturating_sub(a.size);
            }
        }
        debug_assert!(
            self.stack_index.iter().all(|&(fr, _)| fr != frame),
            "stack allocations for frame {frame} were not a tail suffix"
        );
    }

    /// Validates an access of `size` bytes at `p`.
    #[inline(always)]
    fn check_access(&self, p: Pointer, size: u64) -> Result<&Allocation, RtError> {
        match self.allocs.get(p.alloc.0 as usize) {
            Some(a)
                if a.live && p.offset >= 0 && (p.offset as u64).saturating_add(size) <= a.size =>
            {
                Ok(a)
            }
            _ => Err(self.access_error(p, size)),
        }
    }

    /// The error a failed [`Memory::check_access`] reports, counting a
    /// trap on dead memory.
    #[cold]
    #[inline(never)]
    fn access_error(&self, p: Pointer, size: u64) -> RtError {
        let Some(a) = self.allocs.get(p.alloc.0 as usize) else {
            return RtError::InvalidPointer("dangling allocation id".into());
        };
        if !a.live {
            self.uaf_traps.set(self.uaf_traps.get() + 1);
            return match a.kind {
                AllocKind::Heap => RtError::UseAfterFree,
                AllocKind::Stack { .. } => RtError::UseAfterReturn,
                AllocKind::Global => RtError::InvalidPointer("dead global".into()),
            };
        }
        RtError::OutOfBounds {
            offset: p.offset,
            size,
            alloc_size: a.size,
        }
    }

    #[inline(always)]
    fn check_access_mut(&mut self, p: Pointer, size: u64) -> Result<&mut Allocation, RtError> {
        self.check_access(p, size)?;
        Ok(&mut self.allocs[p.alloc.0 as usize])
    }

    /// Reads an integer of `size` bytes (little-endian), sign-extending when
    /// `signed`.
    ///
    /// # Errors
    ///
    /// Bounds/liveness errors, or [`RtError::UninitRead`].
    #[inline(always)]
    pub fn read_int(&self, p: Pointer, size: u64, signed: bool) -> Result<i128, RtError> {
        self.check_access(p, size)?
            .load_int(p.offset as usize, size as usize, signed)
    }

    /// Writes an integer of `size` bytes, truncating; invalidates any
    /// overlapping pointer provenance (the WILD tag-clearing rule).
    ///
    /// # Errors
    ///
    /// Bounds/liveness errors.
    #[inline(always)]
    pub fn write_int(&mut self, p: Pointer, size: u64, v: i128) -> Result<(), RtError> {
        let a = self.check_access_mut(p, size)?;
        let (off, n) = (p.offset as usize, size as usize);
        a.clear_tags(off, n);
        a.store_int(off, n, v);
        Ok(())
    }

    /// Reads a float of `size` (4 or 8) bytes.
    ///
    /// # Errors
    ///
    /// Bounds/liveness errors, or [`RtError::UninitRead`].
    #[inline(always)]
    pub fn read_float(&self, p: Pointer, size: u64) -> Result<f64, RtError> {
        let raw = self.read_int(p, size, false)? as u128;
        Ok(match size {
            4 => f32::from_bits(raw as u32) as f64,
            _ => f64::from_bits(raw as u64),
        })
    }

    /// Writes a float of `size` (4 or 8) bytes.
    ///
    /// # Errors
    ///
    /// Bounds/liveness errors.
    #[inline(always)]
    pub fn write_float(&mut self, p: Pointer, size: u64, v: f64) -> Result<(), RtError> {
        let raw: u128 = match size {
            4 => (v as f32).to_bits() as u128,
            _ => v.to_bits() as u128,
        };
        self.write_int(p, size, raw as i128)
    }

    /// Reads a pointer-sized slot: a tagged slot yields the stored pointer;
    /// zero bytes yield null; other initialized bytes yield a disguised
    /// integer.
    ///
    /// # Errors
    ///
    /// Bounds/liveness errors, or [`RtError::UninitRead`].
    #[inline(always)]
    pub fn read_ptr(&self, p: Pointer, ptr_bytes: u64) -> Result<PtrVal, RtError> {
        let a = self.check_access(p, ptr_bytes)?;
        let off = p.offset as usize;
        if a.shadow.get(off).is_some_and(|&s| s & TAG != 0) {
            if let Some(v) = a.prov.get(&(off as u64)) {
                return Ok(*v);
            }
        }
        Ok(match a.load_int(off, ptr_bytes as usize, false)? as u64 {
            0 => PtrVal::Null,
            raw => PtrVal::IntVal(raw),
        })
    }

    /// Whether the slot at `p` currently holds a tagged pointer (the WILD
    /// tag check of Figure 10).
    pub fn has_ptr_tag(&self, p: Pointer) -> bool {
        self.allocs
            .get(p.alloc.0 as usize)
            .is_some_and(|a| match a.shadow.get(p.offset as usize) {
                Some(&s) => s & TAG != 0,
                // Dead: the shadow is gone, the provenance entries are not.
                None => a.prov.contains_key(&(p.offset as u64)),
            })
    }

    /// Writes a pointer value: raw virtual-address bytes plus a tag.
    ///
    /// # Errors
    ///
    /// Bounds/liveness errors.
    #[inline(always)]
    pub fn write_ptr(&mut self, p: Pointer, v: PtrVal, ptr_bytes: u64) -> Result<(), RtError> {
        let va = self.va_of(&v);
        self.write_int(p, ptr_bytes, va as i128)?;
        if !matches!(v, PtrVal::Null | PtrVal::IntVal(_)) {
            self.allocs[p.alloc.0 as usize].set_tag(p.offset as usize, v);
        }
        Ok(())
    }

    /// Copies `size` bytes from `src` to `dst`, preserving initialization
    /// and the tags that start in the source (typed struct assignment).
    /// Overlapping copies read the source as it was before the copy.
    ///
    /// # Errors
    ///
    /// Bounds/liveness errors on either side.
    pub fn copy_region(&mut self, dst: Pointer, src: Pointer, size: u64) -> Result<(), RtError> {
        let (so, n) = (src.offset as usize, size as usize);
        let tags = self.check_access(src, size)?.tags_in(so, n);
        self.check_access(dst, size)?;
        let d_o = dst.offset as usize;
        let (si, di) = (src.alloc.0 as usize, dst.alloc.0 as usize);
        // Clearing first drops the destination's old tags; a source slot it
        // clears on an overlapping copy is restored from `tags` below.
        self.allocs[di].clear_tags(d_o, n);
        if si == di {
            let a = &mut self.allocs[di];
            a.bytes.copy_within(so..so + n, d_o);
            a.shadow.copy_within(so..so + n, d_o);
        } else {
            let (s, d) = if si < di {
                let (lo, hi) = self.allocs.split_at_mut(di);
                (&lo[si], &mut hi[0])
            } else {
                let (lo, hi) = self.allocs.split_at_mut(si);
                (&hi[0], &mut lo[di])
            };
            d.bytes[d_o..d_o + n].copy_from_slice(&s.bytes[so..so + n]);
            d.shadow[d_o..d_o + n].copy_from_slice(&s.shadow[so..so + n]);
        }
        let d = &mut self.allocs[di];
        for (o, v) in tags {
            d.set_tag(d_o + o, v);
        }
        Ok(())
    }

    /// Reads raw bytes (library builtins). Does **not** require
    /// initialization (libc routines may copy uninitialized padding).
    ///
    /// # Errors
    ///
    /// Bounds/liveness errors.
    pub fn read_bytes(&self, p: Pointer, size: u64) -> Result<&[u8], RtError> {
        let a = self.check_access(p, size)?;
        let off = p.offset as usize;
        Ok(&a.bytes[off..off + size as usize])
    }

    /// Writes raw bytes (library builtins), marking them initialized.
    ///
    /// # Errors
    ///
    /// Bounds/liveness errors.
    pub fn write_bytes(&mut self, p: Pointer, data: &[u8]) -> Result<(), RtError> {
        let a = self.check_access_mut(p, data.len() as u64)?;
        let (off, n) = (p.offset as usize, data.len());
        a.clear_tags(off, n);
        a.bytes[off..off + n].copy_from_slice(data);
        a.shadow[off..off + n].fill(INIT);
        Ok(())
    }

    /// Reads a NUL-terminated C string starting at `p`.
    ///
    /// # Errors
    ///
    /// [`RtError::OutOfBounds`] if no NUL occurs within the allocation.
    pub fn read_c_string(&self, p: Pointer) -> Result<Vec<u8>, RtError> {
        let a = self.check_access(p, 0)?;
        let mut out = Vec::new();
        let mut off = p.offset as u64;
        loop {
            if off >= a.size() {
                return Err(RtError::OutOfBounds {
                    offset: off as i64,
                    size: 1,
                    alloc_size: a.size(),
                });
            }
            let b = a.bytes[off as usize];
            if b == 0 {
                return Ok(out);
            }
            out.push(b);
            off += 1;
        }
    }

    /// The stable virtual address of a pointer value.
    #[inline(always)]
    pub fn va_of(&self, v: &PtrVal) -> u64 {
        match v {
            PtrVal::Null => 0,
            PtrVal::IntVal(x) => *x,
            PtrVal::Fn(ccured_cil::ir::FnRef::Def(f)) => 0xF000_0000_0000_0000 | f.0 as u64,
            PtrVal::Fn(ccured_cil::ir::FnRef::Ext(x)) => 0xF100_0000_0000_0000 | x.0 as u64,
            PtrVal::Safe(p)
            | PtrVal::Seq { p, .. }
            | PtrVal::Wild { p, .. }
            | PtrVal::Rtti { p, .. } => {
                ((p.alloc.0 as u64 + 1) << 32).wrapping_add(p.offset as u64 & 0xffff_ffff)
            }
        }
    }

    /// Resolves a virtual address back to a pointer, if it names a live
    /// allocation (used by the Jones–Kelly baseline's object registry).
    pub fn ptr_of_va(&self, va: u64) -> Option<Pointer> {
        let alloc = (va >> 32).checked_sub(1)? as usize;
        if alloc >= self.allocs.len() {
            return None;
        }
        Some(Pointer {
            alloc: AllocId(alloc as u32),
            offset: (va & 0xffff_ffff) as i64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> Memory {
        Memory::new()
    }

    #[test]
    fn alloc_read_write_int() {
        let mut m = mem();
        let a = m.alloc(16, AllocKind::Heap).unwrap();
        let p = Pointer {
            alloc: a,
            offset: 4,
        };
        m.write_int(p, 4, -7).unwrap();
        assert_eq!(m.read_int(p, 4, true).unwrap(), -7);
        assert_eq!(m.read_int(p, 4, false).unwrap(), 0xffff_fff9);
    }

    #[test]
    fn uninit_read_is_detected() {
        let mut m = mem();
        let a = m.alloc(8, AllocKind::Heap).unwrap();
        let p = Pointer {
            alloc: a,
            offset: 0,
        };
        assert_eq!(m.read_int(p, 4, true), Err(RtError::UninitRead));
        m.write_int(p, 2, 1).unwrap();
        // Partially initialized word still errors.
        assert_eq!(m.read_int(p, 4, true), Err(RtError::UninitRead));
    }

    #[test]
    fn out_of_bounds_detected() {
        let mut m = mem();
        let a = m.alloc(8, AllocKind::Heap).unwrap();
        let p = Pointer {
            alloc: a,
            offset: 6,
        };
        assert!(matches!(
            m.write_int(p, 4, 0),
            Err(RtError::OutOfBounds { .. })
        ));
        let neg = Pointer {
            alloc: a,
            offset: -1,
        };
        assert!(matches!(
            m.read_int(neg, 1, false),
            Err(RtError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn use_after_free_detected() {
        let mut m = mem();
        let a = m.alloc(8, AllocKind::Heap).unwrap();
        let p = Pointer {
            alloc: a,
            offset: 0,
        };
        m.write_int(p, 4, 1).unwrap();
        assert_eq!(m.uaf_traps(), 0);
        m.free(a).unwrap();
        assert_eq!(m.read_int(p, 4, true), Err(RtError::UseAfterFree));
        assert_eq!(m.uaf_traps(), 1);
        assert_eq!(m.free(a), Err(RtError::DoubleFree));
    }

    #[test]
    fn free_error_taxonomy_is_precise() {
        // Each free-path failure has its own variant with its own message:
        // double free is not "use after free", free of stack/global memory
        // is not a generic invalid pointer.
        let mut m = mem();
        let h = m.alloc(8, AllocKind::Heap).unwrap();
        m.free(h).unwrap();
        let double = m.free(h).unwrap_err();
        assert_eq!(double, RtError::DoubleFree);
        assert_eq!(double.to_string(), "double free of heap allocation");
        assert!(double.is_memory_error());

        let s = m.alloc(8, AllocKind::Stack { frame: 1 }).unwrap();
        let g = m.alloc(8, AllocKind::Global).unwrap();
        for id in [s, g] {
            let bad = m.free(id).unwrap_err();
            assert_eq!(bad, RtError::FreeOfNonHeap);
            assert_eq!(bad.to_string(), "free of non-heap memory");
            assert!(bad.is_memory_error());
        }
        // Non-heap placement wins over liveness: freeing a dead stack slot
        // still reports FreeOfNonHeap, not DoubleFree.
        m.kill_frame(1);
        assert_eq!(m.free(s), Err(RtError::FreeOfNonHeap));
    }

    #[test]
    fn temporal_keys_stamp_and_revoke() {
        let mut m = mem();
        let a = m.alloc(8, AllocKind::Heap).unwrap();
        let b = m.alloc(8, AllocKind::Heap).unwrap();
        // Keys are distinct monotonic generations.
        let (ka, kb) = (m.allocation(a).key(), m.allocation(b).key());
        assert!(ka != 0 && kb != 0 && ka != kb);
        assert!(m.temporal_valid(a) && m.temporal_valid(b));
        // Revocation keeps the bytes live (GC semantics) but kills the key.
        let p = Pointer {
            alloc: a,
            offset: 0,
        };
        m.write_int(p, 4, 7).unwrap();
        m.temporal_revoke(a).unwrap();
        assert!(!m.temporal_valid(a));
        assert_eq!(m.allocation(a).key(), 0);
        assert!(m.allocation(a).live, "temporal revoke must not free bytes");
        assert_eq!(m.read_int(p, 4, true).unwrap(), 7);
        assert_eq!(m.uaf_traps(), 0, "the machine never trapped");
        // Second revocation is a double free; non-heap is rejected.
        assert_eq!(m.temporal_revoke(a), Err(RtError::DoubleFree));
        let s = m.alloc(4, AllocKind::Stack { frame: 2 }).unwrap();
        assert_eq!(m.temporal_revoke(s), Err(RtError::FreeOfNonHeap));
        // Frame death revokes the keys of its stack allocations.
        assert!(m.temporal_valid(s));
        m.kill_frame(2);
        assert!(!m.temporal_valid(s));
    }

    #[test]
    fn use_after_return_detected() {
        let mut m = mem();
        let a = m.alloc(8, AllocKind::Stack { frame: 3 }).unwrap();
        let p = Pointer {
            alloc: a,
            offset: 0,
        };
        m.write_int(p, 4, 1).unwrap();
        m.kill_frame(3);
        assert_eq!(m.read_int(p, 4, true), Err(RtError::UseAfterReturn));
    }

    #[test]
    fn pointer_roundtrip_with_provenance() {
        let mut m = mem();
        let a = m.alloc(16, AllocKind::Heap).unwrap();
        let b = m.alloc(8, AllocKind::Heap).unwrap();
        let slot = Pointer {
            alloc: a,
            offset: 8,
        };
        let target = PtrVal::Safe(Pointer {
            alloc: b,
            offset: 4,
        });
        m.write_ptr(slot, target, 8).unwrap();
        assert_eq!(m.read_ptr(slot, 8).unwrap(), target);
        assert!(m.has_ptr_tag(slot));
    }

    #[test]
    fn overwriting_pointer_with_int_clears_tag() {
        let mut m = mem();
        let a = m.alloc(16, AllocKind::Heap).unwrap();
        let b = m.alloc(8, AllocKind::Heap).unwrap();
        let slot = Pointer {
            alloc: a,
            offset: 0,
        };
        m.write_ptr(
            slot,
            PtrVal::Safe(Pointer {
                alloc: b,
                offset: 0,
            }),
            8,
        )
        .unwrap();
        assert!(m.has_ptr_tag(slot));
        // Clobber one byte in the middle: the tag must clear.
        m.write_int(
            Pointer {
                alloc: a,
                offset: 4,
            },
            1,
            0xAA,
        )
        .unwrap();
        assert!(!m.has_ptr_tag(slot));
        // Reading the slot now yields a disguised integer, not a pointer.
        assert!(matches!(m.read_ptr(slot, 8).unwrap(), PtrVal::IntVal(_)));
    }

    #[test]
    fn dead_allocations_drop_their_buffers() {
        let mut m = mem();
        let h = m.alloc(64, AllocKind::Heap).unwrap();
        let s = m.alloc(32, AllocKind::Stack { frame: 1 }).unwrap();
        let t = m.alloc(8, AllocKind::Heap).unwrap();
        let slot = Pointer {
            alloc: h,
            offset: 8,
        };
        let target = PtrVal::Safe(Pointer {
            alloc: t,
            offset: 0,
        });
        m.write_ptr(slot, target, 8).unwrap();
        assert_eq!(m.buffer_bytes(), 2 * (64 + 32 + 8));
        m.free(h).unwrap();
        m.kill_frame(1);
        assert_eq!(m.buffer_bytes(), 2 * 8, "only the live allocation's");
        // A dead allocation keeps its size, placement, revoked key and tags.
        assert_eq!(m.allocation(h).size(), 64);
        assert_eq!(m.allocation(s).size(), 32);
        assert_eq!(m.allocation(s).kind, AllocKind::Stack { frame: 1 });
        assert_eq!((m.allocation(h).key(), m.allocation(s).key()), (0, 0));
        assert!(m.has_ptr_tag(slot));
        assert!(!m.has_ptr_tag(slot.offset_by(1)));
        // Every access reports what it did while the buffers were held.
        assert_eq!(m.read_ptr(slot, 8), Err(RtError::UseAfterFree));
        let dead_stack = Pointer {
            alloc: s,
            offset: 0,
        };
        assert_eq!(m.write_int(dead_stack, 4, 1), Err(RtError::UseAfterReturn));
        assert_eq!(
            m.copy_region(dead_stack, slot, 8),
            Err(RtError::UseAfterFree)
        );
        assert_eq!(m.read_c_string(slot), Err(RtError::UseAfterFree));
        assert_eq!(m.uaf_traps(), 4);
        assert_eq!(m.free(h), Err(RtError::DoubleFree));
        m.mark_init(h);
        assert_eq!(
            m.buffer_bytes(),
            2 * 8,
            "marking a dead allocation is a no-op"
        );
        // What stays per dead allocation (DESIGN.md): its record, plus the
        // provenance table if it stored pointers.
        assert_eq!(std::mem::size_of::<Allocation>(), 104);
    }

    #[test]
    fn null_reads_as_null() {
        let mut m = mem();
        let a = m.alloc(8, AllocKind::Heap).unwrap();
        let slot = Pointer {
            alloc: a,
            offset: 0,
        };
        m.write_int(slot, 8, 0).unwrap();
        assert_eq!(m.read_ptr(slot, 8).unwrap(), PtrVal::Null);
    }

    #[test]
    fn copy_region_preserves_provenance_and_init() {
        let mut m = mem();
        let a = m.alloc(32, AllocKind::Heap).unwrap();
        let b = m.alloc(8, AllocKind::Heap).unwrap();
        let src = Pointer {
            alloc: a,
            offset: 0,
        };
        m.write_int(src, 4, 42).unwrap();
        m.write_ptr(
            src.offset_by(8),
            PtrVal::Safe(Pointer {
                alloc: b,
                offset: 0,
            }),
            8,
        )
        .unwrap();
        let dst = Pointer {
            alloc: a,
            offset: 16,
        };
        m.copy_region(dst, src, 16).unwrap();
        assert_eq!(m.read_int(dst, 4, true).unwrap(), 42);
        assert!(matches!(
            m.read_ptr(dst.offset_by(8), 8).unwrap(),
            PtrVal::Safe(_)
        ));
    }

    #[test]
    fn c_string_reading() {
        let mut m = mem();
        let a = m.alloc(8, AllocKind::Global).unwrap();
        m.write_bytes(
            Pointer {
                alloc: a,
                offset: 0,
            },
            b"hi\0",
        )
        .unwrap();
        assert_eq!(
            m.read_c_string(Pointer {
                alloc: a,
                offset: 0
            })
            .unwrap(),
            b"hi"
        );
        assert_eq!(
            m.read_c_string(Pointer {
                alloc: a,
                offset: 1
            })
            .unwrap(),
            b"i"
        );
        // A string without NUL runs off the allocation.
        let b = m.alloc(2, AllocKind::Global).unwrap();
        m.write_bytes(
            Pointer {
                alloc: b,
                offset: 0,
            },
            b"xy",
        )
        .unwrap();
        assert!(m
            .read_c_string(Pointer {
                alloc: b,
                offset: 0
            })
            .is_err());
    }

    #[test]
    fn va_roundtrip() {
        let mut m = mem();
        let a = m.alloc(16, AllocKind::Heap).unwrap();
        let p = Pointer {
            alloc: a,
            offset: 12,
        };
        let va = m.va_of(&PtrVal::Safe(p));
        assert_eq!(m.ptr_of_va(va), Some(p));
        assert_eq!(m.va_of(&PtrVal::Null), 0);
    }

    #[test]
    fn floats_roundtrip() {
        let mut m = mem();
        let a = m.alloc(16, AllocKind::Heap).unwrap();
        let p = Pointer {
            alloc: a,
            offset: 0,
        };
        m.write_float(p, 8, 2.5).unwrap();
        assert_eq!(m.read_float(p, 8).unwrap(), 2.5);
        m.write_float(p, 4, 1.25).unwrap();
        assert_eq!(m.read_float(p, 4).unwrap(), 1.25);
    }

    #[test]
    fn absurd_allocation_rejected() {
        let mut m = mem();
        assert!(m.alloc(1 << 40, AllocKind::Heap).is_err());
    }

    #[test]
    fn heap_cap_enforced_and_peak_tracked() {
        let mut m = mem();
        m.set_heap_limit(100);
        let a = m.alloc(60, AllocKind::Heap).unwrap();
        assert_eq!(m.peak_live_bytes, 60);
        let over = m.alloc(60, AllocKind::Heap);
        assert!(
            matches!(
                over,
                Err(RtError::LimitExceeded {
                    limit: "heap_limit",
                    ..
                })
            ),
            "{over:?}"
        );
        // Freeing makes room again; peak stays at the high-water mark.
        m.free(a).unwrap();
        let b = m.alloc(90, AllocKind::Heap).unwrap();
        assert!(m.allocation(b).live);
        assert_eq!(m.peak_live_bytes, 90);
    }
}
