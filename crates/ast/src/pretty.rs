//! Pretty-printer: renders an AST back to compilable C-subset source.
//!
//! Used for debugging dumps and for parse → print → parse round-trip tests.

use crate::ast::*;
use std::fmt::Write as _;

/// Renders a translation unit as source text.
pub fn print_unit(tu: &TranslationUnit) -> String {
    let mut p = Printer::default();
    for d in &tu.decls {
        p.ext_decl(d);
    }
    p.out
}

#[derive(Default)]
struct Printer {
    out: String,
    indent: usize,
}

impl Printer {
    fn nl(&mut self) {
        self.out.push('\n');
        for _ in 0..self.indent {
            self.out.push_str("    ");
        }
    }

    fn ext_decl(&mut self, d: &ExtDecl) {
        match d {
            ExtDecl::Function(f) => {
                self.decl_specs(&f.specs);
                self.out.push(' ');
                self.declarator(&f.declarator);
                self.out.push_str(" {");
                self.indent += 1;
                for s in &f.body {
                    self.nl();
                    self.stmt(s);
                }
                self.indent -= 1;
                self.nl();
                self.out.push_str("}\n");
            }
            ExtDecl::Decl(d) => {
                self.declaration(d);
                self.out.push('\n');
            }
            ExtDecl::Pragma(p) => {
                let _ = writeln!(self.out, "#pragma {}", p.raw);
            }
        }
    }

    fn declaration(&mut self, d: &Declaration) {
        self.decl_specs(&d.specs);
        for (i, init) in d.inits.iter().enumerate() {
            self.out.push(if i == 0 { ' ' } else { ',' });
            if i > 0 {
                self.out.push(' ');
            }
            self.declarator(&init.declarator);
            if let Some(init) = &init.init {
                self.out.push_str(" = ");
                self.initializer(init);
            }
        }
        self.out.push(';');
    }

    fn decl_specs(&mut self, s: &DeclSpecs) {
        if let Some(st) = s.storage {
            self.out.push_str(match st {
                Storage::Typedef => "typedef ",
                Storage::Extern => "extern ",
                Storage::Static => "static ",
            });
        }
        if s.is_const {
            self.out.push_str("const ");
        }
        match s.split {
            Some(true) => self.out.push_str("__SPLIT "),
            Some(false) => self.out.push_str("__NOSPLIT "),
            None => {}
        }
        self.type_spec(&s.type_spec);
    }

    fn type_spec(&mut self, t: &TypeSpec) {
        match t {
            TypeSpec::Void => self.out.push_str("void"),
            TypeSpec::Char { signed } => {
                match signed {
                    Some(true) => self.out.push_str("signed "),
                    Some(false) => self.out.push_str("unsigned "),
                    None => {}
                }
                self.out.push_str("char");
            }
            TypeSpec::Int { signed, size } => {
                if !signed {
                    self.out.push_str("unsigned ");
                }
                self.out.push_str(match size {
                    IntSize::Short => "short",
                    IntSize::Int => "int",
                    IntSize::Long => "long",
                    IntSize::LongLong => "long long",
                });
            }
            TypeSpec::Float => self.out.push_str("float"),
            TypeSpec::Double => self.out.push_str("double"),
            TypeSpec::Comp(c) => {
                self.out
                    .push_str(if c.is_union { "union" } else { "struct" });
                if let Some(tag) = &c.tag {
                    let _ = write!(self.out, " {tag}");
                }
                if let Some(groups) = &c.fields {
                    self.out.push_str(" {");
                    self.indent += 1;
                    for g in groups {
                        self.nl();
                        self.decl_specs(&g.specs);
                        for (i, d) in g.declarators.iter().enumerate() {
                            self.out.push(if i == 0 { ' ' } else { ',' });
                            if i > 0 {
                                self.out.push(' ');
                            }
                            self.declarator(d);
                        }
                        self.out.push(';');
                    }
                    self.indent -= 1;
                    self.nl();
                    self.out.push('}');
                }
            }
            TypeSpec::Enum(e) => {
                self.out.push_str("enum");
                if let Some(tag) = &e.tag {
                    let _ = write!(self.out, " {tag}");
                }
                if let Some(items) = &e.items {
                    self.out.push_str(" { ");
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            self.out.push_str(", ");
                        }
                        self.out.push_str(&item.name);
                        if let Some(v) = &item.value {
                            self.out.push_str(" = ");
                            self.expr(v);
                        }
                    }
                    self.out.push_str(" }");
                }
            }
            TypeSpec::Name(n) => self.out.push_str(n),
        }
    }

    /// Prints a declarator by recursing over the derived chain outside-in.
    fn declarator(&mut self, d: &Declarator) {
        self.declarator_parts(&d.derived, d.name.as_deref());
    }

    fn declarator_parts(&mut self, derived: &[Derived], name: Option<&str>) {
        match derived.last() {
            None => {
                if let Some(n) = name {
                    self.out.push_str(n);
                }
            }
            Some(Derived::Pointer(q)) => {
                self.out.push('*');
                if let Some(k) = q.kind {
                    self.out.push_str(match k {
                        PtrKindAnnot::Safe => " __SAFE",
                        PtrKindAnnot::Seq => " __SEQ",
                        PtrKindAnnot::Wild => " __WILD",
                        PtrKindAnnot::Rtti => " __RTTI",
                    });
                }
                match q.split {
                    Some(true) => self.out.push_str(" __SPLIT"),
                    Some(false) => self.out.push_str(" __NOSPLIT"),
                    None => {}
                }
                if q.is_const {
                    self.out.push_str(" const");
                }
                if q.kind.is_some() || q.split.is_some() || q.is_const {
                    self.out.push(' ');
                }
                let rest = &derived[..derived.len() - 1];
                self.declarator_parts(rest, name);
            }
            Some(Derived::Array(len)) => {
                let rest = &derived[..derived.len() - 1];
                // Postfix `[]` binds tighter than a prefix `*` in the inner
                // chain, so a pointer level there must be parenthesized.
                self.grouped_parts(rest, name);
                self.out.push('[');
                if let Some(e) = len {
                    self.expr(e);
                }
                self.out.push(']');
            }
            Some(Derived::Function(params, varargs)) => {
                let rest = &derived[..derived.len() - 1];
                self.grouped_parts(rest, name);
                self.out.push('(');
                if params.is_empty() && !varargs {
                    self.out.push_str("void");
                }
                for (i, p) in params.iter().enumerate() {
                    if i > 0 {
                        self.out.push_str(", ");
                    }
                    self.decl_specs(&p.specs);
                    if p.declarator.name.is_some() || !p.declarator.derived.is_empty() {
                        self.out.push(' ');
                        self.declarator(&p.declarator);
                    }
                }
                if *varargs {
                    if !params.is_empty() {
                        self.out.push_str(", ");
                    }
                    self.out.push_str("...");
                }
                self.out.push(')');
            }
        }
    }

    /// Prints an inner declarator chain, parenthesizing if it ends with a
    /// pointer level (prefix `*` binds looser than postfix `[]`/`()`).
    fn grouped_parts(&mut self, rest: &[Derived], name: Option<&str>) {
        if matches!(rest.last(), Some(Derived::Pointer(_))) {
            self.out.push('(');
            self.declarator_parts(rest, name);
            self.out.push(')');
        } else {
            self.declarator_parts(rest, name);
        }
    }

    fn initializer(&mut self, i: &Initializer) {
        match i {
            Initializer::Expr(e) => self.expr(e),
            Initializer::List(items, _) => {
                self.out.push_str("{ ");
                for (idx, item) in items.iter().enumerate() {
                    if idx > 0 {
                        self.out.push_str(", ");
                    }
                    self.initializer(item);
                }
                self.out.push_str(" }");
            }
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Expr(None) => self.out.push(';'),
            StmtKind::Expr(Some(e)) => {
                self.expr(e);
                self.out.push(';');
            }
            StmtKind::Decl(d) => self.declaration(d),
            StmtKind::Block(stmts) => {
                self.out.push('{');
                self.indent += 1;
                for st in stmts {
                    self.nl();
                    self.stmt(st);
                }
                self.indent -= 1;
                self.nl();
                self.out.push('}');
            }
            StmtKind::If(c, t, e) => {
                self.out.push_str("if (");
                self.expr(c);
                self.out.push_str(") ");
                self.stmt(t);
                if let Some(e) = e {
                    self.out.push_str(" else ");
                    self.stmt(e);
                }
            }
            StmtKind::While(c, b) => {
                self.out.push_str("while (");
                self.expr(c);
                self.out.push_str(") ");
                self.stmt(b);
            }
            StmtKind::DoWhile(b, c) => {
                self.out.push_str("do ");
                self.stmt(b);
                self.out.push_str(" while (");
                self.expr(c);
                self.out.push_str(");");
            }
            StmtKind::For(init, cond, step, body) => {
                self.out.push_str("for (");
                match init.as_deref() {
                    Some(ForInit::Expr(e)) => {
                        self.expr(e);
                        self.out.push(';');
                    }
                    Some(ForInit::Decl(d)) => self.declaration(d),
                    None => self.out.push(';'),
                }
                self.out.push(' ');
                if let Some(c) = cond {
                    self.expr(c);
                }
                self.out.push_str("; ");
                if let Some(s) = step {
                    self.expr(s);
                }
                self.out.push_str(") ");
                self.stmt(body);
            }
            StmtKind::Switch(e, b) => {
                self.out.push_str("switch (");
                self.expr(e);
                self.out.push_str(") ");
                self.stmt(b);
            }
            StmtKind::Case(e, st) => {
                self.out.push_str("case ");
                self.expr(e);
                self.out.push_str(": ");
                self.stmt(st);
            }
            StmtKind::Default(st) => {
                self.out.push_str("default: ");
                self.stmt(st);
            }
            StmtKind::Break => self.out.push_str("break;"),
            StmtKind::Continue => self.out.push_str("continue;"),
            StmtKind::Return(None) => self.out.push_str("return;"),
            StmtKind::Return(Some(e)) => {
                self.out.push_str("return ");
                self.expr(e);
                self.out.push(';');
            }
            StmtKind::Goto(l) => {
                let _ = write!(self.out, "goto {l};");
            }
            StmtKind::Label(l, st) => {
                let _ = write!(self.out, "{l}: ");
                self.stmt(st);
            }
        }
    }

    fn expr(&mut self, e: &Expr) {
        match &e.kind {
            ExprKind::IntLit(v, suffix) => {
                let _ = write!(self.out, "{v}");
                if suffix.unsigned {
                    self.out.push('u');
                }
                if suffix.long {
                    self.out.push('l');
                }
            }
            ExprKind::FloatLit(v) => {
                if v.fract() == 0.0 && v.is_finite() {
                    let _ = write!(self.out, "{v:.1}");
                } else {
                    let _ = write!(self.out, "{v}");
                }
            }
            ExprKind::CharLit(c) => {
                let escaped = match *c {
                    b'\n' => "\\n".to_string(),
                    b'\t' => "\\t".to_string(),
                    b'\r' => "\\r".to_string(),
                    b'\'' => "\\'".to_string(),
                    b'\\' => "\\\\".to_string(),
                    0 => "\\0".to_string(),
                    c if (32..127).contains(&c) => (c as char).to_string(),
                    c => format!("\\x{c:02x}"),
                };
                let _ = write!(self.out, "'{escaped}'");
            }
            ExprKind::StrLit(bytes) => {
                self.out.push('"');
                for &b in bytes {
                    match b {
                        b'\n' => self.out.push_str("\\n"),
                        b'\t' => self.out.push_str("\\t"),
                        b'"' => self.out.push_str("\\\""),
                        b'\\' => self.out.push_str("\\\\"),
                        0 => self.out.push_str("\\0"),
                        b if (32..127).contains(&b) => self.out.push(b as char),
                        b => {
                            let _ = write!(self.out, "\\x{b:02x}");
                        }
                    }
                }
                self.out.push('"');
            }
            ExprKind::Ident(n) => self.out.push_str(n),
            ExprKind::Unary(op, inner) => {
                self.out.push_str(match op {
                    UnOp::Neg => "-",
                    UnOp::Plus => "+",
                    UnOp::Not => "!",
                    UnOp::BitNot => "~",
                    UnOp::Deref => "*",
                    UnOp::Addr => "&",
                    UnOp::PreInc => "++",
                    UnOp::PreDec => "--",
                });
                self.out.push('(');
                self.expr(inner);
                self.out.push(')');
            }
            ExprKind::PostIncDec(inc, inner) => {
                self.out.push('(');
                self.expr(inner);
                self.out.push(')');
                self.out.push_str(if *inc { "++" } else { "--" });
            }
            ExprKind::Binary(op, l, r) => {
                self.out.push('(');
                self.operand(l);
                let _ = write!(self.out, " {} ", binop_str(*op));
                self.operand(r);
                self.out.push(')');
            }
            ExprKind::Assign(op, l, r) => {
                self.expr(l);
                match op {
                    None => self.out.push_str(" = "),
                    Some(op) => {
                        let _ = write!(self.out, " {}= ", binop_str(*op));
                    }
                }
                self.expr(r);
            }
            ExprKind::Cond(c, t, e2) => {
                self.out.push('(');
                self.operand(c);
                self.out.push_str(" ? ");
                self.expr(t);
                self.out.push_str(" : ");
                self.operand(e2);
                self.out.push(')');
            }
            ExprKind::Cast(tn, inner) => {
                self.out.push('(');
                self.decl_specs(&tn.specs);
                if !tn.declarator.derived.is_empty() {
                    self.out.push(' ');
                    self.declarator(&tn.declarator);
                }
                if tn.trusted {
                    self.out.push_str(" __TRUSTED");
                }
                self.out.push(')');
                self.out.push('(');
                self.expr(inner);
                self.out.push(')');
            }
            ExprKind::SizeofExpr(inner) => {
                self.out.push_str("sizeof(");
                self.expr(inner);
                self.out.push(')');
            }
            ExprKind::SizeofType(tn) => {
                self.out.push_str("sizeof(");
                self.decl_specs(&tn.specs);
                if !tn.declarator.derived.is_empty() {
                    self.out.push(' ');
                    self.declarator(&tn.declarator);
                }
                self.out.push(')');
            }
            ExprKind::Call(f, args) => {
                self.postfix_operand(f);
                self.out.push('(');
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        self.out.push_str(", ");
                    }
                    self.expr(a);
                }
                self.out.push(')');
            }
            ExprKind::Index(a, i) => {
                self.postfix_operand(a);
                self.out.push('[');
                self.expr(i);
                self.out.push(']');
            }
            ExprKind::Member(obj, field) => {
                self.postfix_operand(obj);
                let _ = write!(self.out, ".{field}");
            }
            ExprKind::Arrow(obj, field) => {
                self.postfix_operand(obj);
                let _ = write!(self.out, "->{field}");
            }
            ExprKind::Comma(l, r) => {
                self.out.push('(');
                self.expr(l);
                self.out.push_str(", ");
                self.expr(r);
                self.out.push(')');
            }
        }
    }

    /// Prints a subexpression in an operand position. Every composite form
    /// already parenthesizes itself except assignment, whose precedence is
    /// below everything — printed bare inside e.g. a comparison it would
    /// re-parse with the wrong structure (`(n = f()) > 0` is not
    /// `n = (f() > 0)`), so it gets explicit parentheses here.
    fn operand(&mut self, e: &Expr) {
        if matches!(e.kind, ExprKind::Assign(..)) {
            self.out.push('(');
            self.expr(e);
            self.out.push(')');
        } else {
            self.expr(e);
        }
    }

    /// Prints the base of a postfix form (`[]`, `.`, `->`, a call).
    /// Prefix forms — casts, unary operators, `sizeof`, assignment — bind
    /// looser than postfix, so printed bare they would capture the postfix
    /// tail on re-parse (`(T)(r)->f` re-parses as `(T)(r->f)`); wrap them.
    fn postfix_operand(&mut self, e: &Expr) {
        if matches!(
            e.kind,
            ExprKind::Assign(..)
                | ExprKind::Cast(..)
                | ExprKind::Unary(..)
                | ExprKind::SizeofExpr(..)
                | ExprKind::SizeofType(..)
        ) {
            self.out.push('(');
            self.expr(e);
            self.out.push(')');
        } else {
            self.expr(e);
        }
    }
}

fn binop_str(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Div => "/",
        BinOp::Rem => "%",
        BinOp::Shl => "<<",
        BinOp::Shr => ">>",
        BinOp::Lt => "<",
        BinOp::Gt => ">",
        BinOp::Le => "<=",
        BinOp::Ge => ">=",
        BinOp::Eq => "==",
        BinOp::Ne => "!=",
        BinOp::BitAnd => "&",
        BinOp::BitXor => "^",
        BinOp::BitOr => "|",
        BinOp::LogAnd => "&&",
        BinOp::LogOr => "||",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_translation_unit;

    /// Parsing the printed output must succeed and print identically
    /// (idempotent round trip).
    fn roundtrip(src: &str) {
        let tu1 = parse_translation_unit(src).expect("initial parse");
        let printed1 = print_unit(&tu1);
        let tu2 = parse_translation_unit(&printed1)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\nprinted:\n{printed1}"));
        let printed2 = print_unit(&tu2);
        assert_eq!(printed1, printed2, "printer is not idempotent");
    }

    #[test]
    fn roundtrip_simple() {
        roundtrip("int main(void) { return 0; }");
    }

    #[test]
    fn roundtrip_pointers_arrays() {
        roundtrip("int *a[10]; int (*f)(int, char *); char **argv;");
    }

    #[test]
    fn roundtrip_structs() {
        roundtrip(
            "struct Figure { double (*area)(struct Figure *obj); };\n\
             struct Circle { double (*area)(struct Figure *obj); int radius; } *c;",
        );
    }

    #[test]
    fn roundtrip_control_flow() {
        roundtrip(
            "int f(int n) { int s = 0; for (int i = 0; i < n; i++) s += i;\n\
             while (s) { s--; if (s == 3) break; } return s; }",
        );
    }

    #[test]
    fn roundtrip_annotations() {
        roundtrip("int * __SAFE p; char * __SEQ q; struct H { int x; } __SPLIT *h;");
    }

    #[test]
    fn roundtrip_literals() {
        roundtrip("char *s = \"a\\nb\\0c\"; char c = '\\t'; double d = 2.5; int h = 0xff;");
    }

    #[test]
    fn roundtrip_switch_goto() {
        roundtrip(
            "int f(int x) { switch (x) { case 1: return 1; default: goto out; } out: return 0; }",
        );
    }

    #[test]
    fn roundtrip_varargs_and_enum() {
        roundtrip("extern int printf(char *fmt, ...); enum E { A, B = 3 }; enum E e = B;");
    }
}
