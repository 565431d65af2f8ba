//! Robustness fuzzing: the frontend must never panic on arbitrary input,
//! lowering+execution must agree with an independent Rust oracle on
//! randomly generated arithmetic programs, and the interpreter must honour
//! its sandbox ([`Limits`]) on everything the fuzzer can construct.

use ccured::Curer;
use ccured_integration::{run_cured, run_original};
use ccured_rt::{ExecMode, Interp, Limits};
use proptest::prelude::*;

// ---------------------------------------------------------------- frontend

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes: the lexer/parser may reject, never panic.
    #[test]
    fn parser_never_panics_on_garbage(s in "\\PC*") {
        let _ = ccured_ast::parse_translation_unit(&s);
    }

    /// C-ish token soup: higher densities of real syntax.
    #[test]
    fn parser_never_panics_on_token_soup(
        toks in prop::collection::vec(
            prop::sample::select(vec![
                "int", "char", "struct", "{", "}", "(", ")", ";", "*", "x",
                "y", "=", "+", "return", "if", "else", "while", "for", "[",
                "]", "42", "\"s\"", ",", "->", "&", "void", "typedef", "T",
                "case", "switch", "goto", "...", "__SAFE", "#pragma p",
            ]),
            0..64,
        )
    ) {
        let src = toks.join(" ");
        let _ = ccured_ast::parse_translation_unit(&src);
    }

    /// Anything that parses must also lower-or-reject without panicking,
    /// and anything that lowers must cure without panicking. Whatever
    /// cures must then *run* inside the default sandbox without panicking
    /// and without the heap ever exceeding the configured cap — the
    /// hardened-interpreter guarantee, checked on adversarial inputs.
    #[test]
    fn pipeline_never_panics_on_parsed_soup(
        toks in prop::collection::vec(
            prop::sample::select(vec![
                "int", "f", "g", "(", ")", "{", "}", ";", "*", "p", "q",
                "=", "+", "-", "return", "0", "1", "&", ",", "void", "[", "]",
                "2", "if", "(", ")", "char", "main", "while",
            ]),
            0..48,
        )
    ) {
        let src = toks.join(" ");
        if let Ok(cured) = Curer::new().cure_source(&src) {
            let limits = Limits { fuel: 200_000, ..Limits::default() };
            let mut i = Interp::new(&cured.program, ExecMode::cured(&cured));
            i.set_limits(limits);
            // Errors (including limit trips) are fine; panics are
            // not, and proptest reports them as failures here.
            let _ = i.run();
            prop_assert!(
                i.counters.peak_heap_bytes <= limits.max_heap_bytes,
                "heap cap exceeded: {} > {} on:\n{}",
                i.counters.peak_heap_bytes, limits.max_heap_bytes, src
            );
            prop_assert!(
                i.counters.peak_stack_depth <= limits.max_stack_depth as u64,
                "stack cap exceeded: {} > {} on:\n{}",
                i.counters.peak_stack_depth, limits.max_stack_depth, src
            );
        }
    }
}

// ------------------------------------------------------------------ oracle

/// A little expression AST with a Rust-side evaluator (the oracle) and a
/// C renderer. All arithmetic is `i64`-wrapping to match `long` on the
/// target machine.
#[derive(Debug, Clone)]
enum E {
    Num(i8),
    Var(usize),
    Add(Box<E>, Box<E>),
    Sub(Box<E>, Box<E>),
    Mul(Box<E>, Box<E>),
    Div(Box<E>, Box<E>),
    Rem(Box<E>, Box<E>),
    Neg(Box<E>),
    Shl(Box<E>, u8),
    And(Box<E>, Box<E>),
    Xor(Box<E>, Box<E>),
    Lt(Box<E>, Box<E>),
    Cond(Box<E>, Box<E>, Box<E>),
}

const VARS: [(&str, i64); 4] = [("a", 3), ("b", -7), ("c", 100), ("d", 0)];

impl E {
    fn eval(&self) -> Option<i64> {
        Some(match self {
            E::Num(n) => *n as i64,
            E::Var(i) => VARS[*i % VARS.len()].1,
            E::Add(x, y) => x.eval()?.wrapping_add(y.eval()?),
            E::Sub(x, y) => x.eval()?.wrapping_sub(y.eval()?),
            E::Mul(x, y) => x.eval()?.wrapping_mul(y.eval()?),
            E::Div(x, y) => {
                let d = y.eval()?;
                if d == 0 {
                    return None; // UB: the generator filters these out
                }
                x.eval()?.wrapping_div(d)
            }
            E::Rem(x, y) => {
                let d = y.eval()?;
                if d == 0 {
                    return None;
                }
                x.eval()?.wrapping_rem(d)
            }
            E::Neg(x) => x.eval()?.wrapping_neg(),
            E::Shl(x, s) => x.eval()?.wrapping_shl((*s % 16) as u32),
            E::And(x, y) => x.eval()? & y.eval()?,
            E::Xor(x, y) => x.eval()? ^ y.eval()?,
            E::Lt(x, y) => (x.eval()? < y.eval()?) as i64,
            E::Cond(c, t, f) => {
                if c.eval()? != 0 {
                    t.eval()?
                } else {
                    f.eval()?
                }
            }
        })
    }

    fn render(&self) -> String {
        match self {
            E::Num(n) => format!("{n}"),
            E::Var(i) => VARS[*i % VARS.len()].0.to_string(),
            E::Add(x, y) => format!("({} + {})", x.render(), y.render()),
            E::Sub(x, y) => format!("({} - {})", x.render(), y.render()),
            E::Mul(x, y) => format!("({} * {})", x.render(), y.render()),
            E::Div(x, y) => format!("({} / {})", x.render(), y.render()),
            E::Rem(x, y) => format!("({} % {})", x.render(), y.render()),
            // NB: a space after the minus, or `-(-5)` would render as the
            // `--` decrement token (a genuine C lexing pitfall).
            E::Neg(x) => format!("(- {})", x.render()),
            E::Shl(x, s) => format!("({} << {})", x.render(), s % 16),
            E::And(x, y) => format!("({} & {})", x.render(), y.render()),
            E::Xor(x, y) => format!("({} ^ {})", x.render(), y.render()),
            E::Lt(x, y) => format!("({} < {})", x.render(), y.render()),
            E::Cond(c, t, f) => {
                format!("({} ? {} : {})", c.render(), t.render(), f.render())
            }
        }
    }
}

fn expr_strategy() -> impl Strategy<Value = E> {
    let leaf = prop_oneof![any::<i8>().prop_map(E::Num), (0usize..4).prop_map(E::Var),];
    leaf.prop_recursive(5, 64, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Add(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Sub(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Mul(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Div(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Rem(a.into(), b.into())),
            inner.clone().prop_map(|a| E::Neg(a.into())),
            (inner.clone(), any::<u8>()).prop_map(|(a, s)| E::Shl(a.into(), s)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::And(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Xor(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Lt(a.into(), b.into())),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(c, t, f)| E::Cond(
                c.into(),
                t.into(),
                f.into()
            )),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Lowering + both execution modes must agree with the Rust oracle on
    /// `long` arithmetic.
    #[test]
    fn expression_oracle_differential(e in expr_strategy()) {
        let expected = match e.eval() {
            Some(v) => v,
            None => return Ok(()), // division by zero somewhere: skip
        };
        let reduced = expected & 0x3f;
        let src = format!(
            "long a; long b; long c; long d;\n\
             int main(void) {{\n\
               a = 3; b = -7; c = 100; d = 0;\n\
               long v = {};\n\
               return (int)(v & 0x3f);\n\
             }}",
            e.render()
        );
        // Original mode.
        prop_assert_eq!(run_original(&src).0.expect("original run"), reduced, "original vs oracle:\n{}", src);
        // Cured mode.
        prop_assert_eq!(run_cured(&src).0.expect("cured run"), reduced, "cured vs oracle:\n{}", src);
    }
}
