//! Human-readable dumps of the CIL-like IR, for debugging and golden tests.

use crate::ir::*;
use std::fmt::Write as _;

/// Renders a whole program: global and extern declaration lines, then
/// every function block.
pub fn dump_program(p: &Program) -> String {
    let mut out = String::new();
    for g in &p.globals {
        let _ = writeln!(
            out,
            "global {}: {}{}",
            g.name,
            p.types.display(g.ty),
            if g.init.is_some() { " = <init>" } else { "" }
        );
    }
    for e in &p.externals {
        if !e.name.is_empty() {
            let _ = writeln!(out, "extern {}: {}", e.name, p.types.display(e.ty));
        }
    }
    for f in &p.functions {
        dump_function(p, f, &mut out);
    }
    out
}

fn dump_function(p: &Program, f: &Function, out: &mut String) {
    let _ = writeln!(out, "fn {}: {} {{", f.name, p.types.display(f.ty));
    for (i, l) in f.locals.iter().enumerate() {
        let kind = if l.is_param {
            "param"
        } else if l.is_temp {
            "temp"
        } else {
            "local"
        };
        let _ = writeln!(out, "  {kind} %{i} {}: {}", l.name, p.types.display(l.ty));
    }
    for s in &f.body {
        dump_stmt(p, s, 1, out);
    }
    out.push_str("}\n");
}

fn indent(n: usize, out: &mut String) {
    for _ in 0..n {
        out.push_str("  ");
    }
}

fn dump_stmt(p: &Program, s: &Stmt, depth: usize, out: &mut String) {
    match s {
        Stmt::Instr(is) => {
            for i in is {
                indent(depth, out);
                let _ = writeln!(out, "{}", dump_instr(p, i));
            }
        }
        Stmt::If(c, t, e) => {
            indent(depth, out);
            let _ = writeln!(out, "if {} {{", dump_exp(p, c));
            for s in t {
                dump_stmt(p, s, depth + 1, out);
            }
            if !e.is_empty() {
                indent(depth, out);
                out.push_str("} else {\n");
                for s in e {
                    dump_stmt(p, s, depth + 1, out);
                }
            }
            indent(depth, out);
            out.push_str("}\n");
        }
        Stmt::Loop(b) => {
            indent(depth, out);
            out.push_str("loop {\n");
            for s in b {
                dump_stmt(p, s, depth + 1, out);
            }
            indent(depth, out);
            out.push_str("}\n");
        }
        Stmt::Block(b) => {
            indent(depth, out);
            out.push_str("{\n");
            for s in b {
                dump_stmt(p, s, depth + 1, out);
            }
            indent(depth, out);
            out.push_str("}\n");
        }
        Stmt::Break => {
            indent(depth, out);
            out.push_str("break\n");
        }
        Stmt::Continue => {
            indent(depth, out);
            out.push_str("continue\n");
        }
        Stmt::Return(None) => {
            indent(depth, out);
            out.push_str("return\n");
        }
        Stmt::Return(Some(e)) => {
            indent(depth, out);
            let _ = writeln!(out, "return {}", dump_exp(p, e));
        }
        Stmt::Goto(l) => {
            indent(depth, out);
            let _ = writeln!(out, "goto {l}");
        }
        Stmt::Label(l) => {
            indent(depth, out);
            let _ = writeln!(out, "{l}:");
        }
        Stmt::Switch(e, arms) => {
            indent(depth, out);
            let _ = writeln!(out, "switch {} {{", dump_exp(p, e));
            for arm in arms {
                indent(depth + 1, out);
                if arm.values.is_empty() {
                    out.push_str("default:\n");
                } else {
                    let vals: Vec<String> = arm.values.iter().map(|v| v.to_string()).collect();
                    let _ = writeln!(out, "case {}:", vals.join(", "));
                }
                for s in &arm.body {
                    dump_stmt(p, s, depth + 2, out);
                }
            }
            indent(depth, out);
            out.push_str("}\n");
        }
    }
}

/// Renders one instruction.
pub fn dump_instr(p: &Program, i: &Instr) -> String {
    match i {
        Instr::Set(lv, e, _) => format!("{} = {}", dump_lval(p, lv), dump_exp(p, e)),
        Instr::Check(c, _, _) => format!("CHECK_{}", c.name().to_uppercase()),
        Instr::Call(ret, callee, args, _) => {
            let args: Vec<String> = args.iter().map(|a| dump_exp(p, a)).collect();
            let callee = match callee {
                Callee::Func(f) => p.functions[f.idx()].name.clone(),
                Callee::Extern(x) => format!("extern:{}", p.externals[x.idx()].name),
                Callee::Ptr(e) => format!("(*{})", dump_exp(p, e)),
            };
            match ret {
                Some(lv) => format!("{} = {}({})", dump_lval(p, lv), callee, args.join(", ")),
                None => format!("{}({})", callee, args.join(", ")),
            }
        }
    }
}

/// Renders one lvalue.
pub fn dump_lval(p: &Program, lv: &Lval) -> String {
    let mut s = match &lv.base {
        LvBase::Local(l) => format!("%{}", l.0),
        LvBase::Global(g) => p.globals[g.idx()].name.clone(),
        LvBase::Deref(e) => format!("*({})", dump_exp(p, e)),
    };
    for off in &lv.offsets {
        match off {
            Offset::Field(c, i) => {
                let _ = write!(s, ".{}", p.types.comp(*c).fields[*i].name);
            }
            Offset::Index(e) => {
                let _ = write!(s, "[{}]", dump_exp(p, e));
            }
        }
    }
    s
}

/// Renders one expression.
pub fn dump_exp(p: &Program, e: &Exp) -> String {
    match e {
        Exp::Const(Const::Int(v, _), _) => v.to_string(),
        Exp::Const(Const::Float(v, _), _) => format!("{v}"),
        Exp::Load(lv, _) => dump_lval(p, lv),
        Exp::AddrOf(lv, _) => format!("&{}", dump_lval(p, lv)),
        Exp::StartOf(lv, _) => format!("startof({})", dump_lval(p, lv)),
        Exp::FnAddr(FnRef::Def(f), _) => format!("&{}", p.functions[f.idx()].name),
        Exp::FnAddr(FnRef::Ext(x), _) => format!("&extern:{}", p.externals[x.idx()].name),
        Exp::Unop(op, x, _) => format!("{}({})", unop_str(*op), dump_exp(p, x)),
        Exp::Binop(op, a, b, _) => {
            format!("({} {} {})", dump_exp(p, a), binop_str(*op), dump_exp(p, b))
        }
        Exp::Cast(id, x, t) => {
            let trusted = if p.casts[id.idx()].trusted {
                " trusted"
            } else {
                ""
            };
            format!("({}{})({})", p.types.display(*t), trusted, dump_exp(p, x))
        }
        Exp::SizeOf(t, n, _) => format!("sizeof({} /* {n} */)", p.types.display(*t)),
    }
}

fn unop_str(op: UnOp) -> &'static str {
    match op {
        UnOp::Neg => "-",
        UnOp::BitNot => "~",
        UnOp::Not => "!",
    }
}

fn binop_str(op: BinOp) -> &'static str {
    use BinOp::*;
    match op {
        Add => "+",
        Sub => "-",
        Mul => "*",
        Div => "/",
        Rem => "%",
        Shl => "<<",
        Shr => ">>",
        Lt => "<",
        Gt => ">",
        Le => "<=",
        Ge => ">=",
        Eq => "==",
        Ne => "!=",
        BitAnd => "&",
        BitXor => "^",
        BitOr => "|",
        PlusPI => "+p",
        MinusPI => "-p",
        MinusPP => "-pp",
    }
}

#[cfg(test)]
mod tests {
    use crate::lower::lower_translation_unit;

    #[test]
    fn dump_is_nonempty_and_mentions_names() {
        let tu = ccured_ast::parse_translation_unit(
            "int g = 3; int add(int a, int b) { return a + b; }",
        )
        .unwrap();
        let p = lower_translation_unit(&tu).unwrap();
        let d = super::dump_program(&p);
        assert!(d.contains("global g"));
        assert!(d.contains("fn add"));
        assert!(d.contains("return"));
    }

    #[test]
    fn dump_renders_control_flow() {
        let tu = ccured_ast::parse_translation_unit(
            "int f(int n) { int s = 0; while (n > 0) { s += n; n--; } return s; }",
        )
        .unwrap();
        let p = lower_translation_unit(&tu).unwrap();
        let d = super::dump_program(&p);
        assert!(d.contains("loop {"));
        assert!(d.contains("break"));
    }
}
