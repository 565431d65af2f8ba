//! The "precompiled library": external functions provided by the runtime.
//!
//! These builtins see only the **native C representation** — thin pointers
//! and raw bytes. Like real libc they perform *no* CCured checks: writes
//! that stay inside an allocation silently corrupt neighbouring data
//! (realistic), while allocation-level violations surface as ground-truth
//! errors (a crashing library). The CCured wrapper helpers (`__ptrof`,
//! `__mkptr`, `__verify_nul`, `__bounds_check_n`) are the exception: they
//! understand every fat representation and realize Section 4.1.

use crate::err::RtError;
use crate::interp::Interp;
use crate::mem::{AllocKind, Pointer};
use crate::value::{PtrVal, Value};
use ccured_cil::ir::CheckKind;
use ccured_cil::types::Type;

/// Dispatches an external call by name.
///
/// # Errors
///
/// [`RtError::UnknownExternal`] for unknown names; otherwise whatever the
/// builtin produces.
pub fn call(it: &mut Interp<'_>, name: &str, args: &[Value]) -> Result<Option<Value>, RtError> {
    match name {
        // ------------------------------------------------ CCured helpers
        "__ptrof" | "__ptrof_int" | "__ptrof_void" => {
            let pv = ptr_arg(args, 0)?;
            Ok(Some(Value::Ptr(match pv.thin() {
                Some(p) => PtrVal::Safe(p),
                None => PtrVal::Null,
            })))
        }
        "__mkptr" => {
            let pv = ptr_arg(args, 0)?;
            let donor = ptr_arg(args, 1)?;
            let out = match (pv.thin(), donor) {
                (None, _) => PtrVal::Null,
                (Some(p), PtrVal::Seq { lo, hi, .. }) | (Some(p), PtrVal::Wild { lo, hi, .. }) => {
                    PtrVal::Seq { p, lo, hi }
                }
                (Some(p), _) => {
                    // A thin donor: use the allocation's true extent (the
                    // helper runs inside the trusted wrapper layer).
                    let hi = it.mem.allocation(p.alloc).size() as i64;
                    PtrVal::Seq { p, lo: 0, hi }
                }
            };
            Ok(Some(Value::Ptr(out)))
        }
        "__verify_nul" => {
            it.counters.checks[CheckKind::SeqBounds] += 1;
            let pv = ptr_arg(args, 0)?;
            let (p, hi) = checked_extent(it, &pv, "__verify_nul")?;
            let mut off = p.offset;
            loop {
                if off >= hi {
                    return Err(RtError::CheckFailed {
                        check: "verify_nul",
                        detail: "string is not NUL-terminated within bounds".into(),
                    });
                }
                it.counters.instrs += 1;
                let b = it.mem.read_bytes(
                    Pointer {
                        alloc: p.alloc,
                        offset: off,
                    },
                    1,
                )?[0];
                if b == 0 {
                    return Ok(None);
                }
                off += 1;
            }
        }
        "__bounds_check_n" => {
            it.counters.checks[CheckKind::SeqBounds] += 1;
            let pv = ptr_arg(args, 0)?;
            let n = int_arg(args, 1)? as i64;
            let (p, hi) = checked_extent(it, &pv, "__bounds_check_n")?;
            if p.offset + n > hi {
                return Err(RtError::CheckFailed {
                    check: "bounds_check_n",
                    detail: format!(
                        "need {n} bytes at offset {} but only {} remain",
                        p.offset,
                        hi - p.offset
                    ),
                });
            }
            Ok(None)
        }

        // -------------------------------------------------- allocators
        "malloc" | "xmalloc" | "emalloc" | "ap_palloc" => {
            let n = int_arg(args, if name == "ap_palloc" { 1 } else { 0 })?.max(1) as u64;
            let id = it.mem.alloc(n, AllocKind::Heap)?;
            it.register_alloc(id);
            Ok(Some(Value::Ptr(PtrVal::Safe(Pointer {
                alloc: id,
                offset: 0,
            }))))
        }
        "calloc" | "xcalloc" | "ap_pcalloc" => {
            let (a, b) = if name == "ap_pcalloc" {
                (1, int_arg(args, 1)?)
            } else {
                (int_arg(args, 0)?, int_arg(args, 1)?)
            };
            let n = (a.max(1) * b.max(1)) as u64;
            let id = it.mem.alloc(n, AllocKind::Heap)?;
            it.mem.mark_init(id);
            it.register_alloc(id);
            Ok(Some(Value::Ptr(PtrVal::Safe(Pointer {
                alloc: id,
                offset: 0,
            }))))
        }
        "realloc" => {
            let pv = ptr_arg(args, 0)?;
            let n = int_arg(args, 1)?.max(1) as u64;
            let id = it.mem.alloc(n, AllocKind::Heap)?;
            it.register_alloc(id);
            if let Some(p) = pv.thin() {
                let old = it.mem.allocation(p.alloc).size();
                let copy = old.min(n);
                it.mem.copy_region(
                    Pointer {
                        alloc: id,
                        offset: 0,
                    },
                    Pointer {
                        alloc: p.alloc,
                        offset: 0,
                    },
                    copy,
                )?;
                if !it.gc_mode() {
                    it.free(p.alloc)?;
                } else if it.temporal_enabled() {
                    temporal_free(it, p.alloc)?;
                }
            }
            Ok(Some(Value::Ptr(PtrVal::Safe(Pointer {
                alloc: id,
                offset: 0,
            }))))
        }
        "free" => {
            // CCured links against a conservative garbage collector: `free`
            // is a no-op in cured programs (dangling pointers stay valid,
            // eliminating use-after-free by construction). The original
            // program keeps real `free` semantics. Under `--temporal` the
            // bytes still stay live (GC), but the allocation's capability
            // key is revoked so every later lock-and-key check fails.
            if it.gc_mode() {
                if it.temporal_enabled() {
                    let pv = ptr_arg(args, 0)?;
                    if let Some(p) = pv.thin() {
                        temporal_free(it, p.alloc)?;
                    }
                }
                it.counters.extern_calls += 0; // already counted by caller
                return Ok(None);
            }
            let pv = ptr_arg(args, 0)?;
            if let Some(p) = pv.thin() {
                it.free(p.alloc)?;
            }
            Ok(None)
        }

        // ----------------------------------------------- string library
        "strlen" => {
            let p = thin_arg(args, 0)?;
            let s = it.mem.read_c_string(p)?;
            it.counters.instrs += s.len() as u64;
            Ok(Some(Value::Int(s.len() as i128)))
        }
        "strchr" => {
            let p = thin_arg(args, 0)?;
            let c = int_arg(args, 1)? as u8;
            let s = it.mem.read_c_string(p)?;
            it.counters.instrs += s.len() as u64;
            match s.iter().position(|&b| b == c) {
                Some(i) => Ok(Some(Value::Ptr(PtrVal::Safe(p.offset_by(i as i64))))),
                None => {
                    if c == 0 {
                        Ok(Some(Value::Ptr(PtrVal::Safe(p.offset_by(s.len() as i64)))))
                    } else {
                        Ok(Some(Value::NULL))
                    }
                }
            }
        }
        "strcpy" => {
            let d = thin_arg(args, 0)?;
            let s = thin_arg(args, 1)?;
            let bytes = it.mem.read_c_string(s)?;
            it.counters.instrs += bytes.len() as u64;
            let mut data = bytes;
            data.push(0);
            it.mem.write_bytes(d, &data)?;
            Ok(Some(Value::Ptr(PtrVal::Safe(d))))
        }
        "strncpy" => {
            let d = thin_arg(args, 0)?;
            let s = thin_arg(args, 1)?;
            let n = int_arg(args, 2)? as usize;
            it.counters.instrs += n as u64;
            // C's strncpy reads at most n source bytes; the source need not
            // be NUL-terminated within n.
            let mut data = vec![0u8; n];
            for (i, slot) in data.iter_mut().enumerate() {
                let b = it.mem.read_bytes(s.offset_by(i as i64), 1)?[0];
                if b == 0 {
                    break;
                }
                *slot = b;
            }
            it.mem.write_bytes(d, &data)?;
            Ok(Some(Value::Ptr(PtrVal::Safe(d))))
        }
        "strcat" => {
            let d = thin_arg(args, 0)?;
            let s = thin_arg(args, 1)?;
            let dst_str = it.mem.read_c_string(d)?;
            let src_str = it.mem.read_c_string(s)?;
            it.counters.instrs += (dst_str.len() + src_str.len()) as u64;
            let mut data = src_str;
            data.push(0);
            it.mem
                .write_bytes(d.offset_by(dst_str.len() as i64), &data)?;
            Ok(Some(Value::Ptr(PtrVal::Safe(d))))
        }
        "strcmp" | "strncmp" => {
            let a = it.mem.read_c_string(thin_arg(args, 0)?)?;
            let b = it.mem.read_c_string(thin_arg(args, 1)?)?;
            let (a, b) = if name == "strncmp" {
                let n = int_arg(args, 2)? as usize;
                (a[..a.len().min(n)].to_vec(), b[..b.len().min(n)].to_vec())
            } else {
                (a, b)
            };
            it.counters.instrs += a.len().min(b.len()) as u64;
            Ok(Some(Value::Int(match a.cmp(&b) {
                std::cmp::Ordering::Less => -1,
                std::cmp::Ordering::Equal => 0,
                std::cmp::Ordering::Greater => 1,
            })))
        }
        "memcpy" | "memmove" => {
            let d = thin_arg(args, 0)?;
            let s = thin_arg(args, 1)?;
            let n = int_arg(args, 2)? as u64;
            it.counters.instrs += n;
            it.mem.copy_region(d, s, n)?;
            Ok(Some(Value::Ptr(PtrVal::Safe(d))))
        }
        "memset" => {
            let d = thin_arg(args, 0)?;
            let c = int_arg(args, 1)? as u8;
            let n = int_arg(args, 2)? as usize;
            it.counters.instrs += n as u64;
            it.mem.write_bytes(d, &vec![c; n])?;
            Ok(Some(Value::Ptr(PtrVal::Safe(d))))
        }
        "memcmp" => {
            let a = thin_arg(args, 0)?;
            let b = thin_arg(args, 1)?;
            let n = int_arg(args, 2)? as u64;
            let x = it.mem.read_bytes(a, n)?.to_vec();
            let y = it.mem.read_bytes(b, n)?.to_vec();
            it.counters.instrs += n;
            Ok(Some(Value::Int(match x.cmp(&y) {
                std::cmp::Ordering::Less => -1,
                std::cmp::Ordering::Equal => 0,
                std::cmp::Ordering::Greater => 1,
            })))
        }
        "strrchr" => {
            let p = thin_arg(args, 0)?;
            let c = int_arg(args, 1)? as u8;
            let s = it.mem.read_c_string(p)?;
            it.counters.instrs += s.len() as u64;
            match s.iter().rposition(|&b| b == c) {
                Some(i) => Ok(Some(Value::Ptr(PtrVal::Safe(p.offset_by(i as i64))))),
                None if c == 0 => Ok(Some(Value::Ptr(PtrVal::Safe(p.offset_by(s.len() as i64))))),
                None => Ok(Some(Value::NULL)),
            }
        }
        "strstr" => {
            let h = thin_arg(args, 0)?;
            let hay = it.mem.read_c_string(h)?;
            let needle = it.mem.read_c_string(thin_arg(args, 1)?)?;
            it.counters.instrs += (hay.len() * needle.len().max(1)) as u64;
            if needle.is_empty() {
                return Ok(Some(Value::Ptr(PtrVal::Safe(h))));
            }
            match hay.windows(needle.len()).position(|w| w == needle) {
                Some(i) => Ok(Some(Value::Ptr(PtrVal::Safe(h.offset_by(i as i64))))),
                None => Ok(Some(Value::NULL)),
            }
        }
        "strncat" => {
            let d = thin_arg(args, 0)?;
            let s = thin_arg(args, 1)?;
            let n = int_arg(args, 2)? as usize;
            let dst_str = it.mem.read_c_string(d)?;
            let src_str = it.mem.read_c_string(s)?;
            it.counters.instrs += (dst_str.len() + n) as u64;
            let mut data: Vec<u8> = src_str.into_iter().take(n).collect();
            data.push(0);
            it.mem
                .write_bytes(d.offset_by(dst_str.len() as i64), &data)?;
            Ok(Some(Value::Ptr(PtrVal::Safe(d))))
        }
        "memchr" => {
            let p = thin_arg(args, 0)?;
            let c = int_arg(args, 1)? as u8;
            let n = int_arg(args, 2)? as u64;
            let bytes = it.mem.read_bytes(p, n)?.to_vec();
            it.counters.instrs += n;
            match bytes.iter().position(|&b| b == c) {
                Some(i) => Ok(Some(Value::Ptr(PtrVal::Safe(p.offset_by(i as i64))))),
                None => Ok(Some(Value::NULL)),
            }
        }
        "strdup" => {
            let s = it.mem.read_c_string(thin_arg(args, 0)?)?;
            it.counters.instrs += s.len() as u64;
            let id = it.mem.alloc(s.len() as u64 + 1, AllocKind::Heap)?;
            it.mem.mark_init(id);
            it.register_alloc(id);
            let mut data = s;
            data.push(0);
            it.mem.write_bytes(
                Pointer {
                    alloc: id,
                    offset: 0,
                },
                &data,
            )?;
            Ok(Some(Value::Ptr(PtrVal::Safe(Pointer {
                alloc: id,
                offset: 0,
            }))))
        }
        // ctype/stdlib scalar helpers: no pointers, callable directly.
        "isdigit" => Ok(Some(Value::Int(
            (int_arg(args, 0)? as u8 as char).is_ascii_digit() as i128,
        ))),
        "isalpha" => Ok(Some(Value::Int(
            (int_arg(args, 0)? as u8 as char).is_ascii_alphabetic() as i128,
        ))),
        "isspace" => Ok(Some(Value::Int(
            (int_arg(args, 0)? as u8 as char).is_ascii_whitespace() as i128,
        ))),
        "isupper" => Ok(Some(Value::Int(
            (int_arg(args, 0)? as u8 as char).is_ascii_uppercase() as i128,
        ))),
        "islower" => Ok(Some(Value::Int(
            (int_arg(args, 0)? as u8 as char).is_ascii_lowercase() as i128,
        ))),
        "toupper" => {
            // C: the argument is an `unsigned char` value or EOF; anything
            // else (notably EOF = -1) passes through unchanged rather than
            // wrapping to 255.
            let c = int_arg(args, 0)?;
            Ok(Some(Value::Int(match u8::try_from(c) {
                Ok(b) => b.to_ascii_uppercase() as i128,
                Err(_) => c,
            })))
        }
        "tolower" => {
            let c = int_arg(args, 0)?;
            Ok(Some(Value::Int(match u8::try_from(c) {
                Ok(b) => b.to_ascii_lowercase() as i128,
                Err(_) => c,
            })))
        }
        "abs" | "labs" => Ok(Some(Value::Int(int_arg(args, 0)?.abs()))),
        "atoi" | "atol" => {
            let s = it.mem.read_c_string(thin_arg(args, 0)?)?;
            let text: String = s.iter().map(|&b| b as char).collect();
            let text = text.trim();
            let mut end = 0;
            let bytes = text.as_bytes();
            if !bytes.is_empty() && (bytes[0] == b'-' || bytes[0] == b'+') {
                end = 1;
            }
            while end < bytes.len() && bytes[end].is_ascii_digit() {
                end += 1;
            }
            let v: i128 = text[..end].parse().unwrap_or(0);
            Ok(Some(Value::Int(v)))
        }

        // --------------------------------------------------------- I/O
        "printf" => {
            let fmt = it.mem.read_c_string(thin_arg(args, 0)?)?;
            let rendered = format_c(it, &fmt, &args[1..])?;
            let n = rendered.len();
            it.out.extend_from_slice(&rendered);
            it.counters.io_ops += 1;
            it.counters.io_bytes += n as u64;
            Ok(Some(Value::Int(n as i128)))
        }
        "sprintf" => {
            let buf = thin_arg(args, 0)?;
            let fmt = it.mem.read_c_string(thin_arg(args, 1)?)?;
            let mut rendered = format_c(it, &fmt, &args[2..])?;
            rendered.push(0);
            it.mem.write_bytes(buf, &rendered)?;
            Ok(Some(Value::Int(rendered.len() as i128 - 1)))
        }
        "snprintf" => {
            let buf = thin_arg(args, 0)?;
            let cap = int_arg(args, 1)?;
            // The size parameter is a size_t; a negative value sign-extended
            // through `as usize` would become a huge capacity. Refuse it the
            // way glibc does (EOVERFLOW): write nothing, return -1.
            if cap < 0 {
                return Ok(Some(Value::Int(-1)));
            }
            let cap = cap as usize;
            let fmt = it.mem.read_c_string(thin_arg(args, 2)?)?;
            let rendered = format_c(it, &fmt, &args[3..])?;
            let n = rendered.len();
            if cap > 0 {
                let mut w = rendered;
                w.truncate(cap - 1);
                w.push(0);
                it.mem.write_bytes(buf, &w)?;
            }
            Ok(Some(Value::Int(n as i128)))
        }
        "puts" => {
            let s = it.mem.read_c_string(thin_arg(args, 0)?)?;
            let n = s.len();
            it.out.extend_from_slice(&s);
            it.out.push(b'\n');
            it.counters.io_ops += 1;
            it.counters.io_bytes += n as u64 + 1;
            Ok(Some(Value::Int(0)))
        }
        "putchar" => {
            let c = int_arg(args, 0)? as u8;
            it.out.push(c);
            it.counters.io_ops += 1;
            it.counters.io_bytes += 1;
            Ok(Some(Value::Int(c as i128)))
        }
        "getchar" => {
            it.counters.io_ops += 1;
            if it.input_pos < it.input.len() {
                let c = it.input[it.input_pos];
                it.input_pos += 1;
                it.counters.io_bytes += 1;
                Ok(Some(Value::Int(c as i128)))
            } else {
                Ok(Some(Value::Int(-1)))
            }
        }
        "net_recv" => {
            let buf = thin_arg(args, 0)?;
            let cap = int_arg(args, 1)?;
            // A negative capacity must not wrap into a huge usize and drain
            // the whole input stream; fail the call like recv(2) (EINVAL).
            if cap < 0 {
                return Ok(Some(Value::Int(-1)));
            }
            let cap = cap as usize;
            let avail = it.input.len() - it.input_pos;
            let n = avail.min(cap);
            let data = it.input[it.input_pos..it.input_pos + n].to_vec();
            it.input_pos += n;
            it.mem.write_bytes(buf, &data)?;
            it.counters.io_ops += 1;
            it.counters.io_bytes += n as u64;
            Ok(Some(Value::Int(n as i128)))
        }
        "net_send" => {
            let buf = thin_arg(args, 0)?;
            let n = int_arg(args, 1)? as u64;
            let data = it.mem.read_bytes(buf, n)?.to_vec();
            it.out.extend_from_slice(&data);
            it.counters.io_ops += 1;
            it.counters.io_bytes += n;
            Ok(Some(Value::Int(n as i128)))
        }
        "sim_io" => {
            let units = int_arg(args, 0)?.max(0) as u64;
            it.counters.io_ops += units;
            Ok(None)
        }
        "sim_rand" => {
            it.rng = it
                .rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            Ok(Some(Value::Int(((it.rng >> 33) & 0x3fff_ffff) as i128)))
        }

        // -------------------------------------------------- termination
        "exit" => Err(RtError::Exit(int_arg(args, 0)? as i64)),
        "abort" => Err(RtError::Abort("abort() called".into())),

        "sendmsg_like" => {
            // struct msghdr { char *base; long len; } — a scatter/gather
            // send with a nested pointer: the Section 4.2 motivating shape.
            let m = thin_arg(args, 0)?;
            let word = it.program().types.machine.ptr_bytes;
            let base_off = field_offset(it, "msghdr", "base")?;
            let len_off = field_offset(it, "msghdr", "len")?;
            let base = it.mem.read_ptr(m.offset_by(base_off), word)?;
            let len = it.mem.read_int(m.offset_by(len_off), 8, true)? as u64;
            let p = match base.thin() {
                Some(p) => p,
                None => return Err(RtError::NullDeref),
            };
            let data = it.mem.read_bytes(p, len)?.to_vec();
            it.out.extend_from_slice(&data);
            it.counters.io_ops += 1;
            it.counters.io_bytes += len;
            Ok(Some(Value::Int(len as i128)))
        }

        // --------------------------------------- library data structures
        "gethostbyname" => gethostbyname(it, args),
        "SSL_new" => ssl_new(it),
        "glob" => {
            // int glob(char *pattern, struct glob_res *out): the library
            // allocates the path array and the strings (paper Section 5:
            // "the biggest hurdle was writing a 70-line wrapper for the
            // glob function").
            let pattern = it.mem.read_c_string(thin_arg(args, 0)?)?;
            let out = thin_arg(args, 1)?;
            let word = it.program().types.machine.ptr_bytes;
            let stem: Vec<u8> = pattern.iter().copied().take_while(|&b| b != b'*').collect();
            let names: Vec<Vec<u8>> = (0..3)
                .map(|i| {
                    let mut n = stem.clone();
                    n.extend_from_slice(format!("match{i}").as_bytes());
                    n
                })
                .collect();
            let arr = it
                .mem
                .alloc((names.len() as u64 + 1) * word, AllocKind::Heap)?;
            it.mem.mark_init(arr);
            it.register_alloc(arr);
            for (i, name) in names.iter().enumerate() {
                let s = it.mem.alloc(name.len() as u64 + 1, AllocKind::Heap)?;
                it.mem.mark_init(s);
                it.register_alloc(s);
                let mut data = name.clone();
                data.push(0);
                it.mem.write_bytes(
                    Pointer {
                        alloc: s,
                        offset: 0,
                    },
                    &data,
                )?;
                it.mem.write_ptr(
                    Pointer {
                        alloc: arr,
                        offset: (i as u64 * word) as i64,
                    },
                    PtrVal::Seq {
                        p: Pointer {
                            alloc: s,
                            offset: 0,
                        },
                        lo: 0,
                        hi: name.len() as i64 + 1,
                    },
                    word,
                )?;
                it.counters.meta_ops += 1;
            }
            it.mem.write_int(
                Pointer {
                    alloc: arr,
                    offset: (names.len() as u64 * word) as i64,
                },
                word,
                0,
            )?;
            // out->count = n; out->paths = arr (fat); fields by name.
            let count_off = field_offset(it, "glob_res", "count")?;
            let paths_off = field_offset(it, "glob_res", "paths")?;
            it.mem
                .write_int(out.offset_by(count_off), 8, names.len() as i128)?;
            it.mem.write_ptr(
                out.offset_by(paths_off),
                PtrVal::Seq {
                    p: Pointer {
                        alloc: arr,
                        offset: 0,
                    },
                    lo: 0,
                    hi: ((names.len() as u64 + 1) * word) as i64,
                },
                word,
            )?;
            it.counters.io_ops += 1;
            Ok(Some(Value::Int(0)))
        }
        "SSL_write" => {
            // Appends plaintext into the session's out-buffer (the library
            // owns and mutates its own structures).
            let s = thin_arg(args, 0)?;
            let buf = thin_arg(args, 1)?;
            let n = int_arg(args, 2)? as u64;
            let word = it.program().types.machine.ptr_bytes;
            let out_off = field_offset(it, "ssl", "out")?;
            let out_ptr = match it.mem.read_ptr(s.offset_by(out_off), word)?.thin() {
                Some(p) => p,
                None => return Err(RtError::NullDeref),
            };
            let data_off = field_offset(it, "sslbuf", "data")?;
            let len_off = field_offset(it, "sslbuf", "len")?;
            let data_ptr = match it.mem.read_ptr(out_ptr.offset_by(data_off), word)?.thin() {
                Some(p) => p,
                None => return Err(RtError::NullDeref),
            };
            let len = it.mem.read_int(out_ptr.offset_by(len_off), 8, true)? as i64;
            let chunk = it.mem.read_bytes(buf, n)?.to_vec();
            let obfuscated: Vec<u8> = chunk.iter().map(|b| b ^ 0x2A).collect();
            it.mem.write_bytes(data_ptr.offset_by(len), &obfuscated)?;
            it.mem
                .write_int(out_ptr.offset_by(len_off), 8, len as i128 + n as i128)?;
            it.counters.io_ops += 1;
            Ok(Some(Value::Int(n as i128)))
        }
        "SSL_read" => {
            // Drains the out-buffer back (echo cipher), deciphering.
            let s = thin_arg(args, 0)?;
            let buf = thin_arg(args, 1)?;
            let cap = int_arg(args, 2)? as i64;
            let word = it.program().types.machine.ptr_bytes;
            let out_off = field_offset(it, "ssl", "out")?;
            let out_ptr = match it.mem.read_ptr(s.offset_by(out_off), word)?.thin() {
                Some(p) => p,
                None => return Err(RtError::NullDeref),
            };
            let data_off = field_offset(it, "sslbuf", "data")?;
            let len_off = field_offset(it, "sslbuf", "len")?;
            let data_ptr = match it.mem.read_ptr(out_ptr.offset_by(data_off), word)?.thin() {
                Some(p) => p,
                None => return Err(RtError::NullDeref),
            };
            let len = it.mem.read_int(out_ptr.offset_by(len_off), 8, true)? as i64;
            let n = len.min(cap);
            let chunk = it.mem.read_bytes(data_ptr, n as u64)?.to_vec();
            let plain: Vec<u8> = chunk.iter().map(|b| b ^ 0x2A).collect();
            it.mem.write_bytes(buf, &plain)?;
            it.mem.write_int(out_ptr.offset_by(len_off), 8, 0)?;
            it.counters.io_ops += 1;
            Ok(Some(Value::Int(n as i128)))
        }

        other => Err(RtError::UnknownExternal(other.to_string())),
    }
}

/// Builds a library-allocated `struct hostent` (paper Section 4.2's
/// motivating example): the data is in native C layout; the runtime also
/// generates CCured metadata for it (the "validate on return" step),
/// counted as metadata operations.
fn gethostbyname(it: &mut Interp<'_>, args: &[Value]) -> Result<Option<Value>, RtError> {
    let name_bytes = it.mem.read_c_string(thin_arg(args, 0)?)?;
    let prog = it.program();
    let cid = prog
        .types
        .find_comp("hostent", false)
        .ok_or_else(|| RtError::Unsupported("program does not declare struct hostent".into()))?;
    let info = prog.types.comp(cid).clone();
    let struct_size = info.size;
    let word = prog.types.machine.ptr_bytes;

    // Allocate the strings: the official name plus two aliases.
    let mk_string = |it: &mut Interp<'_>, s: &[u8]| -> Result<PtrVal, RtError> {
        let id = it.mem.alloc(s.len() as u64 + 1, AllocKind::Heap)?;
        it.mem.mark_init(id);
        it.register_alloc(id);
        let mut data = s.to_vec();
        data.push(0);
        it.mem.write_bytes(
            Pointer {
                alloc: id,
                offset: 0,
            },
            &data,
        )?;
        it.counters.meta_ops += 1; // metadata generated at the boundary
        Ok(PtrVal::Seq {
            p: Pointer {
                alloc: id,
                offset: 0,
            },
            lo: 0,
            hi: s.len() as i64 + 1,
        })
    };
    let h_name = mk_string(it, &name_bytes)?;
    let alias1 = mk_string(it, &[name_bytes.as_slice(), b".local"].concat())?;
    let alias2 = mk_string(it, &[b"www.".as_slice(), &name_bytes].concat())?;

    // The alias array: two entries plus the NULL terminator.
    let arr = it.mem.alloc(3 * word, AllocKind::Heap)?;
    it.mem.mark_init(arr);
    it.register_alloc(arr);
    it.mem.write_ptr(
        Pointer {
            alloc: arr,
            offset: 0,
        },
        alias1,
        word,
    )?;
    it.mem.write_ptr(
        Pointer {
            alloc: arr,
            offset: word as i64,
        },
        alias2,
        word,
    )?;
    it.mem.write_int(
        Pointer {
            alloc: arr,
            offset: 2 * word as i64,
        },
        word,
        0,
    )?;
    it.counters.meta_ops += 1;

    // The hostent itself.
    let host = it.mem.alloc(struct_size.max(1), AllocKind::Heap)?;
    it.mem.mark_init(host);
    it.register_alloc(host);
    for f in &info.fields {
        let at = Pointer {
            alloc: host,
            offset: f.offset as i64,
        };
        match (f.name.as_str(), it.program().types.get(f.ty)) {
            ("h_name", _) => it.mem.write_ptr(at, h_name, word)?,
            ("h_aliases", _) => it.mem.write_ptr(
                at,
                PtrVal::Seq {
                    p: Pointer {
                        alloc: arr,
                        offset: 0,
                    },
                    lo: 0,
                    hi: 3 * word as i64,
                },
                word,
            )?,
            (_, Type::Int(k)) => {
                let size = it.program().types.machine.int_size(*k);
                it.mem.write_int(at, size, 2)? // AF_INET
            }
            _ => {}
        }
    }
    Ok(Some(Value::Ptr(PtrVal::Seq {
        p: Pointer {
            alloc: host,
            offset: 0,
        },
        lo: 0,
        hi: struct_size as i64,
    })))
}

/// Builds a library-owned SSL session: `struct ssl { struct sslbuf *in,
/// *out; int state; }` with `struct sslbuf { char *data; long len; }` —
/// the pointers-to-pointers interface shape of the paper's "ssh client
/// without curing OpenSSL" experiment.
fn ssl_new(it: &mut Interp<'_>) -> Result<Option<Value>, RtError> {
    let prog = it.program();
    let ssl_cid = prog
        .types
        .find_comp("ssl", false)
        .ok_or_else(|| RtError::Unsupported("program does not declare struct ssl".into()))?;
    let ssl_info = prog.types.comp(ssl_cid).clone();
    let word = prog.types.machine.ptr_bytes;

    let mk_buf = |it: &mut Interp<'_>| -> Result<PtrVal, RtError> {
        let data = it.mem.alloc(512, AllocKind::Heap)?;
        it.mem.mark_init(data);
        it.register_alloc(data);
        let buf = it.mem.alloc(2 * word, AllocKind::Heap)?;
        it.mem.mark_init(buf);
        it.register_alloc(buf);
        it.mem.write_ptr(
            Pointer {
                alloc: buf,
                offset: 0,
            },
            PtrVal::Seq {
                p: Pointer {
                    alloc: data,
                    offset: 0,
                },
                lo: 0,
                hi: 512,
            },
            word,
        )?;
        it.mem.write_int(
            Pointer {
                alloc: buf,
                offset: word as i64,
            },
            8,
            0,
        )?;
        it.counters.meta_ops += 1; // boundary metadata generation
        Ok(PtrVal::Seq {
            p: Pointer {
                alloc: buf,
                offset: 0,
            },
            lo: 0,
            hi: 2 * word as i64,
        })
    };
    let inbuf = mk_buf(it)?;
    let outbuf = mk_buf(it)?;
    let s = it.mem.alloc(ssl_info.size.max(1), AllocKind::Heap)?;
    it.mem.mark_init(s);
    it.register_alloc(s);
    for f in &ssl_info.fields {
        let at = Pointer {
            alloc: s,
            offset: f.offset as i64,
        };
        match f.name.as_str() {
            "in" => it.mem.write_ptr(at, inbuf, word)?,
            "out" => it.mem.write_ptr(at, outbuf, word)?,
            _ => {}
        }
    }
    Ok(Some(Value::Ptr(PtrVal::Seq {
        p: Pointer {
            alloc: s,
            offset: 0,
        },
        lo: 0,
        hi: ssl_info.size as i64,
    })))
}

/// Byte offset of a named field in a program-declared struct; the builtins
/// that fill program structures resolve fields by name so declaration order
/// does not matter.
fn field_offset(it: &Interp<'_>, comp: &str, field: &str) -> Result<i64, RtError> {
    let prog = it.program();
    let cid = prog
        .types
        .find_comp(comp, false)
        .ok_or_else(|| RtError::Unsupported(format!("program does not declare struct {comp}")))?;
    prog.types
        .comp(cid)
        .fields
        .iter()
        .find(|f| f.name == field)
        .map(|f| f.offset as i64)
        .ok_or_else(|| RtError::Unsupported(format!("struct {comp} has no field `{field}`")))
}

/// `free`/`realloc` under `--temporal`: revokes the allocation's capability
/// key. A bad free (double free, free of stack/global memory) is itself a
/// temporal-check failure — the cured program aborts gracefully instead of
/// surfacing a ground-truth memory error.
fn temporal_free(it: &mut Interp<'_>, alloc: crate::mem::AllocId) -> Result<(), RtError> {
    it.mem
        .temporal_revoke(alloc)
        .map_err(|e| RtError::CheckFailed {
            check: "temporal",
            detail: format!("free rejected: {e}"),
        })
}

fn ptr_arg(args: &[Value], i: usize) -> Result<PtrVal, RtError> {
    match args.get(i) {
        Some(Value::Ptr(p)) => Ok(*p),
        Some(Value::Int(0)) => Ok(PtrVal::Null),
        other => Err(RtError::Unsupported(format!(
            "expected pointer argument {i}, got {other:?}"
        ))),
    }
}

fn thin_arg(args: &[Value], i: usize) -> Result<Pointer, RtError> {
    match ptr_arg(args, i)? {
        PtrVal::Null => Err(RtError::NullDeref),
        PtrVal::IntVal(x) => Err(RtError::InvalidPointer(format!(
            "library call with integer {x:#x} as pointer"
        ))),
        PtrVal::Fn(_) => Err(RtError::InvalidPointer("function pointer as data".into())),
        other => other
            .thin()
            .ok_or_else(|| RtError::Internal("library pointer has no memory position".into())),
    }
}

fn int_arg(args: &[Value], i: usize) -> Result<i128, RtError> {
    match args.get(i) {
        Some(Value::Int(v)) => Ok(*v),
        Some(Value::Float(f)) => Ok(*f as i128),
        other => Err(RtError::Unsupported(format!(
            "expected integer argument {i}, got {other:?}"
        ))),
    }
}

/// The in-bounds extent `(thin pointer, exclusive upper offset)` usable by
/// a wrapper helper for `pv`.
fn checked_extent(
    it: &Interp<'_>,
    pv: &PtrVal,
    check: &'static str,
) -> Result<(Pointer, i64), RtError> {
    match pv {
        PtrVal::Null => Err(RtError::CheckFailed {
            check: "null",
            detail: format!("{check}: null pointer"),
        }),
        PtrVal::IntVal(x) => Err(RtError::CheckFailed {
            check: "null",
            detail: format!("{check}: integer {x:#x} as pointer"),
        }),
        PtrVal::Seq { p, hi, .. } | PtrVal::Wild { p, hi, .. } => Ok((*p, *hi)),
        PtrVal::Safe(p) | PtrVal::Rtti { p, .. } => {
            Ok((*p, it.mem.allocation(p.alloc).size() as i64))
        }
        PtrVal::Fn(_) => Err(RtError::InvalidPointer("function pointer as data".into())),
    }
}

/// A small C `printf`-style formatter over interpreter values.
fn format_c(it: &Interp<'_>, fmt: &[u8], args: &[Value]) -> Result<Vec<u8>, RtError> {
    let mut out = Vec::new();
    let mut ai = 0;
    let mut i = 0;
    while i < fmt.len() {
        let c = fmt[i];
        if c != b'%' {
            out.push(c);
            i += 1;
            continue;
        }
        i += 1;
        // Skip flags/width/precision/length modifiers.
        while i < fmt.len()
            && (fmt[i].is_ascii_digit()
                || matches!(fmt[i], b'-' | b'+' | b'.' | b' ' | b'l' | b'h' | b'z'))
        {
            i += 1;
        }
        if i >= fmt.len() {
            break;
        }
        let spec = fmt[i];
        i += 1;
        let mut next = || {
            let v = args.get(ai).copied();
            ai += 1;
            v.ok_or_else(|| RtError::Unsupported("printf: missing argument".into()))
        };
        match spec {
            b'%' => out.push(b'%'),
            b'd' | b'i' => {
                let v = next()?.as_int().unwrap_or(0);
                out.extend_from_slice(v.to_string().as_bytes());
            }
            b'u' => {
                let v = next()?.as_int().unwrap_or(0);
                out.extend_from_slice((v as u64).to_string().as_bytes());
            }
            b'x' => {
                let v = next()?.as_int().unwrap_or(0);
                out.extend_from_slice(format!("{:x}", v as u64).as_bytes());
            }
            b'c' => {
                let v = next()?.as_int().unwrap_or(0);
                out.push(v as u8);
            }
            b'f' | b'g' => {
                let v = match next()? {
                    Value::Float(f) => f,
                    Value::Int(x) => x as f64,
                    _ => 0.0,
                };
                out.extend_from_slice(format!("{v:.6}").as_bytes());
            }
            b's' => {
                let v = next()?;
                match v {
                    Value::Ptr(PtrVal::IntVal(x)) => {
                        return Err(RtError::InvalidPointer(format!(
                            "printf %s with integer {x:#x} as pointer"
                        )))
                    }
                    Value::Ptr(pv) => match pv.thin() {
                        Some(p) => out.extend_from_slice(&it.mem.read_c_string(p)?),
                        None => out.extend_from_slice(b"(null)"),
                    },
                    // The Spec95 bug class the paper found: printf given a
                    // non-pointer for %s. Ground truth: invalid pointer.
                    other => {
                        return Err(RtError::InvalidPointer(format!(
                            "printf %s with non-pointer {other:?}"
                        )))
                    }
                }
            }
            b'p' => {
                let v = next()?;
                let va = match v {
                    Value::Ptr(pv) => it.mem.va_of(&pv),
                    Value::Int(x) => x as u64,
                    _ => 0,
                };
                out.extend_from_slice(format!("{va:#x}").as_bytes());
            }
            other => {
                return Err(RtError::Unsupported(format!(
                    "printf: unsupported conversion %{}",
                    other as char
                )))
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use crate::err::RtError;
    use crate::interp::{ExecMode, Interp};

    fn run(src: &str) -> (Result<i64, RtError>, Vec<u8>) {
        let tu = ccured_ast::parse_translation_unit(src).expect("parse");
        let prog = ccured_cil::lower_translation_unit(&tu).expect("lower");
        let mut i = Interp::new(&prog, ExecMode::Original);
        let r = i.run();
        let out = i.output().to_vec();
        (r, out)
    }

    fn run_cured_io(src: &str, input: &[u8]) -> (Result<i64, RtError>, Vec<u8>) {
        let cured = ccured::Curer::new().cure_source(src).expect("cure");
        let mut i = Interp::new(&cured.program, ExecMode::cured(&cured));
        i.set_input(input.to_vec());
        let r = i.run();
        let out = i.output().to_vec();
        (r, out)
    }

    #[test]
    fn malloc_and_free() {
        let src = "extern void *malloc(unsigned long n);\n\
                   extern void free(void *p);\n\
                   int main(void) {\n\
                     int *p = (int *)malloc(4 * sizeof(int));\n\
                     for (int i = 0; i < 4; i++) p[i] = i + 1;\n\
                     int s = p[0] + p[1] + p[2] + p[3];\n\
                     free(p);\n\
                     return s;\n\
                   }";
        let (r, _) = run(src);
        assert_eq!(r.unwrap(), 10);
    }

    #[test]
    fn use_after_free_detected() {
        let src = "extern void *malloc(unsigned long n);\n\
                   extern void free(void *p);\n\
                   int main(void) {\n\
                     int *p = (int *)malloc(8);\n\
                     p[0] = 1;\n\
                     free(p);\n\
                     return p[0];\n\
                   }";
        let (r, _) = run(src);
        assert_eq!(r.unwrap_err(), RtError::UseAfterFree);
    }

    #[test]
    fn malloc_heap_oob_detected() {
        let src = "extern void *malloc(unsigned long n);\n\
                   int main(void) {\n\
                     int *p = (int *)malloc(2 * sizeof(int));\n\
                     p[5] = 1;\n\
                     return 0;\n\
                   }";
        let (r, _) = run(src);
        assert!(r.unwrap_err().is_memory_error());
    }

    #[test]
    fn printf_formats() {
        let src = r#"extern int printf(char *fmt, ...);
                   int main(void) {
                     printf("n=%d s=%s c=%c x=%x u=%u%%\n", 42, "hi", 'A', 255, 7);
                     return 0;
                   }"#;
        let (r, out) = run(src);
        assert_eq!(r.unwrap(), 0);
        assert_eq!(String::from_utf8_lossy(&out), "n=42 s=hi c=A x=ff u=7%\n");
    }

    #[test]
    fn printf_type_confusion_detected() {
        // The paper: "a printf that is passed a FILE* when expecting a
        // char*" — here an int for %s, the same bug class.
        let src = r#"extern int printf(char *fmt, ...);
                   int main(void) { printf("%s", 42); return 0; }"#;
        let (r, _) = run(src);
        assert!(r.unwrap_err().is_memory_error());
    }

    #[test]
    fn string_builtins_work_raw() {
        let src = r#"extern unsigned long strlen(char *s);
                   extern char *strcpy(char *dst, char *src);
                   extern int strcmp(char *a, char *b);
                   int main(void) {
                     char buf[16];
                     strcpy(buf, "hello");
                     if (strcmp(buf, "hello") != 0) return 1;
                     return (int)strlen(buf);
                   }"#;
        let (r, _) = run(src);
        assert_eq!(r.unwrap(), 5);
    }

    #[test]
    fn getchar_consumes_input() {
        let src = "extern int getchar(void);\n\
                   int main(void) {\n\
                     int s = 0;\n\
                     int c;\n\
                     while ((c = getchar()) != -1) s += c;\n\
                     return s;\n\
                   }";
        let (r, _) = run_cured_io(src, b"ab");
        assert_eq!(r.unwrap(), ('a' as i64) + ('b' as i64));
    }

    #[test]
    fn net_roundtrip() {
        let src = "extern long net_recv(char *buf, long cap);\n\
                   extern long net_send(char *buf, long n);\n\
                   int main(void) {\n\
                     char buf[32];\n\
                     long n = net_recv(buf, 32);\n\
                     net_send(buf, n);\n\
                     return (int)n;\n\
                   }";
        let tu = ccured_ast::parse_translation_unit(src).unwrap();
        let prog = ccured_cil::lower_translation_unit(&tu).unwrap();
        let mut i = Interp::new(&prog, ExecMode::Original);
        i.set_input(b"PING".to_vec());
        assert_eq!(i.run().unwrap(), 4);
        assert_eq!(i.output(), b"PING");
        assert!(i.counters.io_ops >= 2);
    }

    #[test]
    fn toupper_tolower_pass_eof_through() {
        let src = "extern int toupper(int c);\n\
                   extern int tolower(int c);\n\
                   int main(void) {\n\
                     if (toupper(-1) != -1) return 1;\n\
                     if (tolower(-1) != -1) return 2;\n\
                     if (toupper(300) != 300) return 3;\n\
                     if (toupper('a') != 'A') return 4;\n\
                     if (tolower('Z') != 'z') return 5;\n\
                     if (toupper('A') != 'A') return 6;\n\
                     return 0;\n\
                   }";
        let (r, _) = run(src);
        assert_eq!(r.unwrap(), 0);
    }

    #[test]
    fn snprintf_rejects_negative_size() {
        let src = r#"extern int snprintf(char *buf, long n, char *fmt, ...);
                   int main(void) {
                     char buf[8];
                     buf[0] = '!';
                     int r = snprintf(buf, -1, "%d", 1234567);
                     if (r != -1) return 1;
                     if (buf[0] != '!') return 2; /* nothing written */
                     r = snprintf(buf, 8, "%d", 123);
                     if (r != 3) return 3;
                     return 0;
                   }"#;
        let (r, _) = run(src);
        assert_eq!(r.unwrap(), 0);
    }

    #[test]
    fn net_recv_rejects_negative_capacity() {
        let src = "extern long net_recv(char *buf, long cap);\n\
                   int main(void) {\n\
                     char buf[8];\n\
                     long n = net_recv(buf, -4);\n\
                     if (n != -1) return 1;\n\
                     n = net_recv(buf, 8);\n\
                     return (int)n; /* the stream was not drained */\n\
                   }";
        let tu = ccured_ast::parse_translation_unit(src).unwrap();
        let prog = ccured_cil::lower_translation_unit(&tu).unwrap();
        let mut i = Interp::new(&prog, ExecMode::Original);
        i.set_input(b"PING".to_vec());
        assert_eq!(i.run().unwrap(), 4);
    }

    #[test]
    fn exit_unwinds() {
        let src = "extern void exit(int code);\n\
                   int main(void) { exit(3); return 0; }";
        let (r, _) = run(src);
        assert_eq!(r.unwrap(), 3);
    }

    #[test]
    fn wrapped_strcpy_catches_overflow_in_cured_mode() {
        let src = "int main(void) {\n\
                     char small[4];\n\
                     strcpy(small, \"this is far too long\");\n\
                     return 0;\n\
                   }";
        let cured = ccured::Curer::new()
            .with_stdlib_wrappers()
            .cure_source(src)
            .expect("cure");
        let mut i = Interp::new(&cured.program, ExecMode::cured(&cured));
        let e = i.run().unwrap_err();
        assert!(e.is_check_failure(), "wrapper must catch the overflow: {e}");
    }

    #[test]
    fn wrapped_strchr_returns_fat_pointer() {
        let src = "extern int printf(char *fmt, ...);\n\
                   int main(void) {\n\
                     char s[8];\n\
                     strcpy(s, \"a/b\");\n\
                     char *p = strchr(s, '/');\n\
                     if (p == 0) return 1;\n\
                     p[1] = 'c'; /* needs bounds from the original buffer */\n\
                     return s[2] == 'c' ? 0 : 2;\n\
                   }";
        let cured = ccured::Curer::new()
            .with_stdlib_wrappers()
            .cure_source(src)
            .expect("cure");
        let mut i = Interp::new(&cured.program, ExecMode::cured(&cured));
        assert_eq!(i.run().unwrap(), 0);
    }

    #[test]
    fn gethostbyname_split_compat() {
        let src = "struct hostent { char *h_name; char **h_aliases; int h_addrtype; };\n\
                   extern struct hostent *gethostbyname(char *name);\n\
                   extern int printf(char *fmt, ...);\n\
                   int main(void) {\n\
                     struct hostent *h = gethostbyname(\"example\");\n\
                     if (h == 0) return 1;\n\
                     printf(\"%s %s %s %d\\n\", h->h_name, h->h_aliases[0], h->h_aliases[1], h->h_addrtype);\n\
                     return 0;\n\
                   }";
        let (r, out) = run_cured_io(src, b"");
        assert_eq!(r.unwrap(), 0);
        assert_eq!(
            String::from_utf8_lossy(&out),
            "example example.local www.example 2\n"
        );
    }

    #[test]
    fn unknown_external_reported() {
        let src = "extern void frobnicate(void);\n\
                   int main(void) { frobnicate(); return 0; }";
        let (r, _) = run(src);
        assert_eq!(
            r.unwrap_err(),
            RtError::UnknownExternal("frobnicate".into())
        );
    }
}
