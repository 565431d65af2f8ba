//! Lowering from the `ccured-ast` syntax tree to the typed CIL-like IR.
//!
//! Lowering performs full C type checking, inserts implicit conversions as
//! cast nodes, simplifies expressions (temporaries for calls, short-circuit
//! operators and conditionals), normalizes loops, flattens initializers for
//! locals, and allocates one qualifier variable per syntactic pointer-type
//! occurrence (plus one per variable/field address), as CCured's inference
//! requires.

use crate::ir::*;
use crate::types::*;
use crate::visit;
use ccured_ast::ast::{self, PtrKindAnnot};
use ccured_ast::parse::MAX_NESTING;
use ccured_ast::{Diag, Span};
use std::collections::HashMap;

/// Lowers a parsed translation unit into a typed [`Program`].
///
/// # Errors
///
/// Returns the first type error or unsupported construct as a [`Diag`].
///
/// # Examples
///
/// ```
/// let tu = ccured_ast::parse_translation_unit("int x = 1 + 2;").unwrap();
/// let prog = ccured_cil::lower::lower_translation_unit(&tu).unwrap();
/// assert_eq!(prog.globals.len(), 1);
/// ```
pub fn lower_translation_unit(tu: &ast::TranslationUnit) -> Result<Program, Diag> {
    let mut lw = Lowerer::new();
    lw.unit(tu)?;
    Ok(lw.finish())
}

#[derive(Debug, Clone)]
enum Binding {
    Local(LocalId),
    Global(GlobalId),
    Func(FuncId),
    Ext(ExternId),
    EnumConst(i128),
    Typedef(TypeId),
}

struct BlockBuilder {
    stmts: Vec<Stmt>,
    instrs: Vec<Instr>,
}

impl BlockBuilder {
    fn new() -> Self {
        BlockBuilder {
            stmts: Vec::new(),
            instrs: Vec::new(),
        }
    }

    fn flush(&mut self) {
        if !self.instrs.is_empty() {
            self.stmts
                .push(Stmt::Instr(std::mem::take(&mut self.instrs)));
        }
    }

    fn finish(mut self) -> Vec<Stmt> {
        self.flush();
        self.stmts
    }
}

/// Context inside a loop, for `continue` lowering.
#[derive(Debug, Clone)]
enum LoopCtx {
    /// `continue` maps to `Continue` directly (while loops).
    Plain,
    /// `continue` maps to `goto label` (for/do-while loops).
    GotoLabel(String),
}

struct Lowerer {
    types: TypeTable,
    globals: Vec<Global>,
    functions: Vec<Function>,
    externals: Vec<ExternDecl>,
    casts: Vec<CastSite>,
    pragmas: Vec<CcuredPragma>,
    annots: Annotations,
    scopes: Vec<HashMap<String, Binding>>,
    blocks: Vec<BlockBuilder>,
    /// Locals of the function currently being lowered.
    cur_locals: Vec<Local>,
    cur_func: Option<FuncId>,
    cur_ret: Option<TypeId>,
    loop_stack: Vec<LoopCtx>,
    next_temp: u32,
    next_label: u32,
    next_anon: u32,
    next_str: u32,
    /// Externals later found to be defined in the program (forward calls).
    ext_defined: HashMap<u32, FuncId>,
    /// Types of functions whose bodies are not yet pushed (recursion).
    fn_types: HashMap<u32, TypeId>,
    /// Names of functions being lowered (for static-local mangling).
    fn_names: HashMap<u32, String>,
    /// When true, lowering an expression may not emit instructions.
    const_ctx: bool,
    /// String literal interning: bytes -> global id.
    str_globals: HashMap<Vec<u8>, GlobalId>,
    /// Memoized [`Lowerer::type_depth`] by `TypeId` (`u32::MAX`: not yet).
    type_depths: Vec<u32>,
}

impl Lowerer {
    fn new() -> Self {
        Lowerer {
            types: TypeTable::default(),
            globals: Vec::new(),
            functions: Vec::new(),
            externals: Vec::new(),
            casts: Vec::new(),
            pragmas: Vec::new(),
            annots: Annotations::default(),
            scopes: vec![HashMap::new()],
            blocks: Vec::new(),
            cur_locals: Vec::new(),
            cur_func: None,
            cur_ret: None,
            loop_stack: Vec::new(),
            next_temp: 0,
            next_label: 0,
            next_anon: 0,
            next_str: 0,
            ext_defined: HashMap::new(),
            fn_types: HashMap::new(),
            fn_names: HashMap::new(),
            const_ctx: false,
            str_globals: HashMap::new(),
            type_depths: Vec::new(),
        }
    }

    fn finish(mut self) -> Program {
        // Rewrite calls/addresses of externals that turned out to be defined.
        if !self.ext_defined.is_empty() {
            let map = std::mem::take(&mut self.ext_defined);
            for f in &mut self.functions {
                visit::for_each_instr_run_mut(&mut f.body, &mut |is| {
                    for i in is {
                        if let Instr::Call(_, callee, _, _) = i {
                            if let Callee::Extern(x) = callee {
                                if let Some(&def) = map.get(&x.0) {
                                    *callee = Callee::Func(def);
                                }
                            }
                        }
                    }
                });
                visit::for_each_exp_mut(&mut f.body, &mut |e| rewrite_fn_addr(e, &map));
            }
            for g in &mut self.globals {
                if let Some(init) = &mut g.init {
                    visit::for_each_init_exp_mut(init, &mut |e| rewrite_fn_addr(e, &map));
                }
            }
            // Drop now-defined externals by marking; keep ids stable by
            // leaving tombstones with empty names (never called after the
            // rewrite above).
            for (ext, _) in map {
                self.externals[ext as usize].name = String::new();
            }
        }
        Program {
            types: self.types,
            globals: self.globals,
            functions: self.functions,
            externals: self.externals,
            casts: self.casts,
            pragmas: self.pragmas,
            annots: self.annots,
        }
    }

    fn err<T>(&self, span: Span, msg: impl Into<String>) -> Result<T, Diag> {
        Err(Diag::error(span, msg))
    }

    // ------------------------------------------------------------- scoping

    fn push_scope(&mut self) {
        self.scopes.push(HashMap::new());
    }

    fn pop_scope(&mut self) {
        self.scopes.pop();
    }

    fn define(&mut self, name: &str, b: Binding) {
        self.scopes
            .last_mut()
            .expect("scope stack never empty")
            .insert(name.to_string(), b);
    }

    fn lookup(&self, name: &str) -> Option<&Binding> {
        self.scopes.iter().rev().find_map(|s| s.get(name))
    }

    // --------------------------------------------------------------- types

    fn type_from_specs(&mut self, specs: &ast::DeclSpecs) -> Result<TypeId, Diag> {
        let ty = match &specs.type_spec {
            ast::TypeSpec::Void => self.types.mk_void(),
            ast::TypeSpec::Char { signed } => self.types.mk_int(match signed {
                None => IntKind::Char,
                Some(true) => IntKind::SChar,
                Some(false) => IntKind::UChar,
            }),
            ast::TypeSpec::Int { signed, size } => self.types.mk_int(match (signed, size) {
                (true, ast::IntSize::Short) => IntKind::Short,
                (false, ast::IntSize::Short) => IntKind::UShort,
                (true, ast::IntSize::Int) => IntKind::Int,
                (false, ast::IntSize::Int) => IntKind::UInt,
                (true, ast::IntSize::Long) => IntKind::Long,
                (false, ast::IntSize::Long) => IntKind::ULong,
                (true, ast::IntSize::LongLong) => IntKind::LongLong,
                (false, ast::IntSize::LongLong) => IntKind::ULongLong,
            }),
            ast::TypeSpec::Float => self.types.mk_float(FloatKind::Float),
            ast::TypeSpec::Double => self.types.mk_float(FloatKind::Double),
            ast::TypeSpec::Comp(cs) => {
                let cid = self.comp_from_spec(cs)?;
                self.types.mk_comp(cid)
            }
            ast::TypeSpec::Enum(es) => {
                if let Some(items) = &es.items {
                    let mut next = 0i128;
                    for item in items {
                        if let Some(v) = &item.value {
                            next = self.const_eval(v)?;
                        }
                        self.define(&item.name, Binding::EnumConst(next));
                        next += 1;
                    }
                }
                self.types.mk_int(IntKind::Int)
            }
            ast::TypeSpec::Name(name) => match self.lookup(name) {
                Some(Binding::Typedef(t)) => *t,
                _ => return self.err(specs.span, format!("unknown type name `{name}`")),
            },
        };
        Ok(ty)
    }

    fn comp_from_spec(&mut self, cs: &ast::CompSpec) -> Result<CompId, Diag> {
        let name = match &cs.tag {
            Some(t) => t.clone(),
            None => {
                let n = format!("__anon{}", self.next_anon);
                self.next_anon += 1;
                n
            }
        };
        let cid = match self.types.find_comp(&name, cs.is_union) {
            Some(c) => c,
            None => self.types.declare_comp(name.clone(), cs.is_union),
        };
        if let Some(groups) = &cs.fields {
            if self.types.comp(cid).defined {
                return self.err(cs.span, format!("redefinition of `{name}`"));
            }
            let mut fields = Vec::new();
            for g in groups {
                let base = self.type_from_specs(&g.specs)?;
                for d in &g.declarators {
                    let (fname, fty) = self.apply_declarator(base, d, g.specs.split)?;
                    let fname = match fname {
                        Some(n) => n,
                        None => return self.err(d.span, "field requires a name"),
                    };
                    let q = self.types.fresh_qual();
                    fields.push((fname, fty, q));
                }
            }
            self.types
                .define_comp(cid, fields)
                .map_err(|e| Diag::error(cs.span, format!("cannot lay out struct: {e}")))?;
        }
        Ok(cid)
    }

    /// Applies a declarator's derived parts to `base`, returning the declared
    /// name and the complete type. `split` is the base-type `__SPLIT`.
    fn apply_declarator(
        &mut self,
        base: TypeId,
        d: &ast::Declarator,
        _split: Option<bool>,
    ) -> Result<(Option<String>, TypeId), Diag> {
        let mut ty = base;
        for step in d.derived.iter().rev() {
            ty = match step {
                ast::Derived::Pointer(q) => {
                    let qual = self.types.fresh_qual();
                    if let Some(k) = q.kind {
                        self.annots.qual_kinds.push((
                            qual,
                            match k {
                                PtrKindAnnot::Safe => KindAnnot::Safe,
                                PtrKindAnnot::Seq => KindAnnot::Seq,
                                PtrKindAnnot::Wild => KindAnnot::Wild,
                                PtrKindAnnot::Rtti => KindAnnot::Rtti,
                            },
                        ));
                    }
                    if let Some(s) = q.split {
                        self.annots.qual_splits.push((qual, s));
                    }
                    self.types.mk_ptr_with_qual(ty, qual)
                }
                ast::Derived::Array(len) => {
                    let n = match len {
                        Some(e) => {
                            let v = self.const_eval(e)?;
                            if v < 0 {
                                return self.err(d.span, "negative array length");
                            }
                            Some(v as u64)
                        }
                        None => None,
                    };
                    self.types.mk_array(ty, n)
                }
                ast::Derived::Function(params, varargs) => {
                    let mut ptypes = Vec::new();
                    for p in params {
                        let pbase = self.type_from_specs(&p.specs)?;
                        let (_, pty) =
                            self.apply_declarator(pbase, &p.declarator, p.specs.split)?;
                        ptypes.push(self.decay_param_type(pty));
                    }
                    self.types.mk_func(FuncSig {
                        ret: ty,
                        params: ptypes,
                        varargs: *varargs,
                    })
                }
            };
            if self.type_depth(ty) > MAX_NESTING {
                return self.err(
                    d.span,
                    format!("type nested too deep: more than {MAX_NESTING} levels"),
                );
            }
        }
        Ok((d.name.clone(), ty))
    }

    /// The derived-type layers of `ty`: one per pointer, array and
    /// function layer, a function adding one to the deepest of its return
    /// and parameter types. Typedefs name their type directly, so a
    /// typedef chain counts in full. Memoized, so checking each step a
    /// declarator builds costs O(1).
    fn type_depth(&mut self, ty: TypeId) -> u32 {
        let i = ty.0 as usize;
        if let Some(&d) = self.type_depths.get(i).filter(|d| **d != u32::MAX) {
            return d;
        }
        let inner: Vec<TypeId> = match self.types.get(ty) {
            Type::Ptr(t, _) | Type::Array(t, _) => vec![*t],
            Type::Func(sig) => std::iter::once(sig.ret)
                .chain(sig.params.iter().copied())
                .collect(),
            _ => Vec::new(),
        };
        let d = inner
            .into_iter()
            .map(|t| 1 + self.type_depth(t))
            .max()
            .unwrap_or(0);
        if self.type_depths.len() <= i {
            self.type_depths.resize(i + 1, u32::MAX);
        }
        self.type_depths[i] = d;
        d
    }

    /// Array and function parameter types decay to pointers.
    fn decay_param_type(&mut self, ty: TypeId) -> TypeId {
        match self.types.get(ty).clone() {
            Type::Array(elem, _) => self.types.mk_ptr(elem),
            Type::Func(_) => self.types.mk_ptr(ty),
            _ => ty,
        }
    }

    // ----------------------------------------------------------- const eval

    fn const_eval(&mut self, e: &ast::Expr) -> Result<i128, Diag> {
        use ast::ExprKind as K;
        Ok(match &e.kind {
            K::IntLit(v, _) => *v as i128,
            K::CharLit(c) => *c as i128,
            K::Ident(name) => match self.lookup(name) {
                Some(Binding::EnumConst(v)) => *v,
                _ => return self.err(e.span, format!("`{name}` is not a constant")),
            },
            K::Unary(ast::UnOp::Neg, x) => -self.const_eval(x)?,
            K::Unary(ast::UnOp::Plus, x) => self.const_eval(x)?,
            K::Unary(ast::UnOp::BitNot, x) => !self.const_eval(x)?,
            K::Unary(ast::UnOp::Not, x) => (self.const_eval(x)? == 0) as i128,
            K::Binary(op, l, r) => {
                let a = self.const_eval(l)?;
                let b = self.const_eval(r)?;
                use ast::BinOp::*;
                match op {
                    Add => a.wrapping_add(b),
                    Sub => a.wrapping_sub(b),
                    Mul => a.wrapping_mul(b),
                    Div => {
                        if b == 0 {
                            return self.err(e.span, "division by zero in constant");
                        }
                        a / b
                    }
                    Rem => {
                        if b == 0 {
                            return self.err(e.span, "division by zero in constant");
                        }
                        a % b
                    }
                    Shl => a.wrapping_shl(b as u32),
                    Shr => a.wrapping_shr(b as u32),
                    Lt => (a < b) as i128,
                    Gt => (a > b) as i128,
                    Le => (a <= b) as i128,
                    Ge => (a >= b) as i128,
                    Eq => (a == b) as i128,
                    Ne => (a != b) as i128,
                    BitAnd => a & b,
                    BitXor => a ^ b,
                    BitOr => a | b,
                    LogAnd => ((a != 0) && (b != 0)) as i128,
                    LogOr => ((a != 0) || (b != 0)) as i128,
                }
            }
            K::Cond(c, t, f) => {
                if self.const_eval(c)? != 0 {
                    self.const_eval(t)?
                } else {
                    self.const_eval(f)?
                }
            }
            K::Cast(_, inner) => self.const_eval(inner)?,
            K::SizeofType(tn) => {
                let base = self.type_from_specs(&tn.specs)?;
                let (_, ty) = self.apply_declarator(base, &tn.declarator, None)?;
                self.types
                    .size_of(ty)
                    .map_err(|err| Diag::error(e.span, format!("sizeof: {err}")))?
                    as i128
            }
            _ => return self.err(e.span, "expression is not an integer constant"),
        })
    }

    // ------------------------------------------------------------- top level

    fn unit(&mut self, tu: &ast::TranslationUnit) -> Result<(), Diag> {
        for d in &tu.decls {
            match d {
                ast::ExtDecl::Pragma(p) => self.pragma(p),
                ast::ExtDecl::Decl(decl) => self.global_declaration(decl)?,
                ast::ExtDecl::Function(f) => self.function(f)?,
            }
        }
        Ok(())
    }

    fn pragma(&mut self, p: &ast::PragmaDirective) {
        let raw = p.raw.trim();
        let parsed = if let Some(rest) = raw.strip_prefix("ccuredWrapperOf") {
            parse_two_strings(rest)
                .map(|(wrapper, external)| CcuredPragma::WrapperOf { wrapper, external })
        } else if let Some(rest) = raw.strip_prefix("ccured_split") {
            parse_ident_arg(rest).map(CcuredPragma::SplitVar)
        } else if let Some(rest) = raw.strip_prefix("ccured_trusted") {
            parse_ident_arg(rest).map(CcuredPragma::TrustedFn)
        } else {
            None
        };
        self.pragmas
            .push(parsed.unwrap_or_else(|| CcuredPragma::Unknown(raw.to_string())));
    }

    fn global_declaration(&mut self, decl: &ast::Declaration) -> Result<(), Diag> {
        let base = self.type_from_specs(&decl.specs)?;
        let is_typedef = decl.specs.storage == Some(ast::Storage::Typedef);
        for init in &decl.inits {
            let (name, ty) = self.apply_declarator(base, &init.declarator, decl.specs.split)?;
            let name = match name {
                Some(n) => n,
                None => return self.err(init.declarator.span, "declaration requires a name"),
            };
            if is_typedef {
                self.define(&name, Binding::Typedef(ty));
                continue;
            }
            if matches!(self.types.get(ty), Type::Func(_)) {
                // A function prototype: an external until defined.
                if self.lookup(&name).is_none() {
                    let id = ExternId(self.externals.len() as u32);
                    self.externals.push(ExternDecl {
                        name: name.clone(),
                        ty,
                        span: init.declarator.span,
                    });
                    self.define(&name, Binding::Ext(id));
                }
                continue;
            }
            let lowered_init = match &init.init {
                Some(i) => {
                    self.const_ctx = true;
                    let r = self.lower_initializer(i, ty);
                    self.const_ctx = false;
                    Some(r?)
                }
                None => None,
            };
            let id = GlobalId(self.globals.len() as u32);
            let addr_qual = self.types.fresh_qual();
            let is_extern =
                decl.specs.storage == Some(ast::Storage::Extern) && lowered_init.is_none();
            self.globals.push(Global {
                name: name.clone(),
                ty,
                addr_qual,
                init: lowered_init,
                is_extern,
                span: init.declarator.span,
            });
            if let Some(s) = decl.specs.split {
                self.annots.split_seeds.push((SplitSeed::Global(id), s));
            }
            self.define(&name, Binding::Global(id));
        }
        Ok(())
    }

    fn function(&mut self, f: &ast::FunctionDef) -> Result<(), Diag> {
        let base = self.type_from_specs(&f.specs)?;
        let (name, fty) = self.apply_declarator(base, &f.declarator, f.specs.split)?;
        let name = match name {
            Some(n) => n,
            None => return self.err(f.span, "function definition requires a name"),
        };
        let sig = match self.types.get(fty) {
            Type::Func(sig) => sig.clone(),
            _ => return self.err(f.span, "declarator does not declare a function"),
        };
        if sig.varargs {
            return self.err(
                f.span,
                "defining variadic functions is not supported (declare them extern)",
            );
        }
        if matches!(self.types.get(sig.ret), Type::Comp(_)) {
            return self.err(
                f.span,
                "returning structures by value is not supported; return a pointer instead",
            );
        }

        let fid = FuncId(self.functions.len() as u32);
        self.fn_types.insert(fid.0, fty);
        self.fn_names.insert(fid.0, name.clone());
        // If previously declared as an external, remember the fixup.
        if let Some(Binding::Ext(e)) = self.lookup(&name).cloned() {
            self.ext_defined.insert(e.0, fid);
        }
        self.define(&name, Binding::Func(fid));

        // Parameter names come from the declarator's outermost function part.
        let params = match f.declarator.derived.first() {
            Some(ast::Derived::Function(params, _)) => params,
            _ => return self.err(f.span, "function definition requires a parameter list"),
        };

        self.cur_locals = Vec::new();
        self.cur_func = Some(fid);
        self.cur_ret = Some(sig.ret);
        self.next_temp = 0;
        self.next_label = 0;
        self.push_scope();
        for (i, p) in params.iter().enumerate() {
            let pname = match &p.declarator.name {
                Some(n) => n.clone(),
                None => format!("__arg{i}"),
            };
            let pty = sig.params[i];
            let q = self.types.fresh_qual();
            let lid = LocalId(self.cur_locals.len() as u32);
            self.cur_locals.push(Local {
                name: pname.clone(),
                ty: pty,
                addr_qual: q,
                is_param: true,
                is_temp: false,
            });
            self.define(&pname, Binding::Local(lid));
        }
        let param_count = self.cur_locals.len();

        self.blocks.push(BlockBuilder::new());
        for s in &f.body {
            self.stmt(s)?;
        }
        self.pop_scope();
        let body = self.blocks.pop().expect("function block").finish();

        self.functions.push(Function {
            name,
            ty: fty,
            param_count,
            locals: std::mem::take(&mut self.cur_locals),
            body,
            span: f.span,
        });
        self.cur_func = None;
        self.cur_ret = None;
        Ok(())
    }

    // ------------------------------------------------------------ emission

    fn emit(&mut self, i: Instr) {
        debug_assert!(!self.const_ctx, "instruction emitted in constant context");
        self.blocks
            .last_mut()
            .expect("emission outside a block")
            .instrs
            .push(i);
    }

    fn emit_stmt(&mut self, s: Stmt) {
        let b = self.blocks.last_mut().expect("emission outside a block");
        b.flush();
        b.stmts.push(s);
    }

    /// Lowers statements into a fresh sub-block and returns them.
    fn in_block<F>(&mut self, f: F) -> Result<Vec<Stmt>, Diag>
    where
        F: FnOnce(&mut Self) -> Result<(), Diag>,
    {
        self.blocks.push(BlockBuilder::new());
        let r = f(self);
        let b = self.blocks.pop().expect("sub-block");
        r?;
        Ok(b.finish())
    }

    fn fresh_temp(&mut self, ty: TypeId) -> LocalId {
        let name = format!("__t{}", self.next_temp);
        self.next_temp += 1;
        let q = self.types.fresh_qual();
        let id = LocalId(self.cur_locals.len() as u32);
        self.cur_locals.push(Local {
            name,
            ty,
            addr_qual: q,
            is_param: false,
            is_temp: true,
        });
        id
    }

    fn fresh_label(&mut self, prefix: &str) -> String {
        let l = format!("__{prefix}{}", self.next_label);
        self.next_label += 1;
        l
    }

    // ------------------------------------------------------------ statements

    fn stmt(&mut self, s: &ast::Stmt) -> Result<(), Diag> {
        use ast::StmtKind as K;
        match &s.kind {
            K::Expr(None) => Ok(()),
            K::Expr(Some(e)) => {
                self.lower_expr_discard(e)?;
                Ok(())
            }
            K::Decl(d) => self.local_declaration(d),
            K::Block(stmts) => {
                self.push_scope();
                let body = self.in_block(|lw| {
                    for st in stmts {
                        lw.stmt(st)?;
                    }
                    Ok(())
                })?;
                self.pop_scope();
                self.emit_stmt(Stmt::Block(body));
                Ok(())
            }
            K::If(c, t, e) => {
                let cond = self.lower_cond(c)?;
                let then_b = self.in_block(|lw| lw.stmt(t))?;
                let else_b = match e {
                    Some(e) => self.in_block(|lw| lw.stmt(e))?,
                    None => Vec::new(),
                };
                self.emit_stmt(Stmt::If(cond, then_b, else_b));
                Ok(())
            }
            K::While(c, body) => {
                self.loop_stack.push(LoopCtx::Plain);
                let lowered = self.in_block(|lw| {
                    let cond = lw.lower_cond(c)?;
                    lw.emit_stmt(Stmt::If(cond, Vec::new(), vec![Stmt::Break]));
                    lw.stmt(body)
                })?;
                self.loop_stack.pop();
                self.emit_stmt(Stmt::Loop(lowered));
                Ok(())
            }
            K::DoWhile(body, c) => {
                let cont = self.fresh_label("cont");
                self.loop_stack.push(LoopCtx::GotoLabel(cont.clone()));
                let lowered = self.in_block(|lw| {
                    lw.stmt(body)?;
                    lw.emit_stmt(Stmt::Label(cont.clone()));
                    let cond = lw.lower_cond(c)?;
                    lw.emit_stmt(Stmt::If(cond, Vec::new(), vec![Stmt::Break]));
                    Ok(())
                })?;
                self.loop_stack.pop();
                self.emit_stmt(Stmt::Loop(lowered));
                Ok(())
            }
            K::For(init, cond, step, body) => {
                self.push_scope();
                match init.as_deref() {
                    Some(ast::ForInit::Expr(e)) => {
                        self.lower_expr_discard(e)?;
                    }
                    Some(ast::ForInit::Decl(d)) => self.local_declaration(d)?,
                    None => {}
                }
                let cont = self.fresh_label("cont");
                self.loop_stack.push(LoopCtx::GotoLabel(cont.clone()));
                let lowered = self.in_block(|lw| {
                    if let Some(c) = cond {
                        let cexp = lw.lower_cond(c)?;
                        lw.emit_stmt(Stmt::If(cexp, Vec::new(), vec![Stmt::Break]));
                    }
                    lw.stmt(body)?;
                    lw.emit_stmt(Stmt::Label(cont.clone()));
                    if let Some(stp) = step {
                        lw.lower_expr_discard(stp)?;
                    }
                    Ok(())
                })?;
                self.loop_stack.pop();
                self.pop_scope();
                self.emit_stmt(Stmt::Loop(lowered));
                Ok(())
            }
            K::Switch(scrut, body) => {
                let e = self.lower_rvalue(scrut)?;
                if !self.types.is_integer(e.ty()) {
                    return self.err(scrut.span, "switch scrutinee must have integer type");
                }
                let arms = self.lower_switch_body(body)?;
                self.emit_stmt(Stmt::Switch(e, arms));
                Ok(())
            }
            K::Case(_, _) | K::Default(_) => self.err(
                s.span,
                "case/default labels must appear at the top level of a switch body",
            ),
            K::Break => {
                self.emit_stmt(Stmt::Break);
                Ok(())
            }
            K::Continue => {
                match self.loop_stack.last().cloned() {
                    Some(LoopCtx::Plain) => self.emit_stmt(Stmt::Continue),
                    Some(LoopCtx::GotoLabel(l)) => self.emit_stmt(Stmt::Goto(l)),
                    None => return self.err(s.span, "continue outside a loop"),
                }
                Ok(())
            }
            K::Return(v) => {
                let ret = self.cur_ret.expect("return inside a function");
                let e = match v {
                    Some(e) => {
                        if matches!(self.types.get(ret), Type::Void) {
                            self.lower_expr_discard(e)?;
                            None
                        } else {
                            let x = self.lower_rvalue(e)?;
                            Some(self.coerce(x, ret, e.span)?)
                        }
                    }
                    None => None,
                };
                self.emit_stmt(Stmt::Return(e));
                Ok(())
            }
            K::Goto(l) => {
                self.emit_stmt(Stmt::Goto(l.clone()));
                Ok(())
            }
            K::Label(l, inner) => {
                self.emit_stmt(Stmt::Label(l.clone()));
                self.stmt(inner)
            }
        }
    }

    fn lower_switch_body(&mut self, body: &ast::Stmt) -> Result<Vec<SwitchArm>, Diag> {
        let stmts: &[ast::Stmt] = match &body.kind {
            ast::StmtKind::Block(stmts) => stmts,
            _ => std::slice::from_ref(body),
        };
        self.push_scope();
        let mut arms: Vec<SwitchArm> = Vec::new();
        for st in stmts {
            // Peel any stack of case/default labels.
            let mut values: Vec<i128> = Vec::new();
            let mut is_arm_start = false;
            let mut is_default = false;
            let mut cur = st;
            loop {
                match &cur.kind {
                    ast::StmtKind::Case(v, inner) => {
                        values.push(self.const_eval(v)?);
                        is_arm_start = true;
                        cur = inner;
                    }
                    ast::StmtKind::Default(inner) => {
                        is_default = true;
                        is_arm_start = true;
                        cur = inner;
                    }
                    _ => break,
                }
            }
            if is_arm_start {
                arms.push(SwitchArm {
                    values: if is_default { Vec::new() } else { values },
                    body: Vec::new(),
                });
            }
            let target = match arms.last_mut() {
                Some(arm) => arm,
                None => {
                    return self.err(st.span, "statement before the first case label in switch")
                }
            };
            // Lower the (label-stripped) statement into the current arm.
            let lowered = self.in_block(|lw| lw.stmt(cur))?;
            target.body.extend(lowered);
        }
        self.pop_scope();
        Ok(arms)
    }

    fn local_declaration(&mut self, d: &ast::Declaration) -> Result<(), Diag> {
        let base = self.type_from_specs(&d.specs)?;
        let is_typedef = d.specs.storage == Some(ast::Storage::Typedef);
        let is_static = d.specs.storage == Some(ast::Storage::Static);
        for init in &d.inits {
            let (name, ty) = self.apply_declarator(base, &init.declarator, d.specs.split)?;
            let name = match name {
                Some(n) => n,
                None => return self.err(init.declarator.span, "declaration requires a name"),
            };
            if is_typedef {
                self.define(&name, Binding::Typedef(ty));
                continue;
            }
            if is_static {
                // A function-scoped static: storage lives for the whole
                // program. Promote to a mangled global; the initializer must
                // be constant (evaluated once, as in C).
                let fname = self
                    .cur_func
                    .map(|f| self.fn_names.get(&f.0).cloned().unwrap_or_default())
                    .unwrap_or_default();
                let mangled = format!("__static_{fname}_{name}");
                let lowered_init = match &init.init {
                    Some(i) => {
                        self.const_ctx = true;
                        let r = self.lower_initializer(i, ty);
                        self.const_ctx = false;
                        Some(r?)
                    }
                    None => None,
                };
                let id = GlobalId(self.globals.len() as u32);
                let addr_qual = self.types.fresh_qual();
                self.globals.push(Global {
                    name: mangled,
                    ty,
                    addr_qual,
                    init: lowered_init,
                    is_extern: false,
                    span: init.declarator.span,
                });
                self.define(&name, Binding::Global(id));
                continue;
            }
            if matches!(self.types.get(ty), Type::Func(_)) {
                if self.lookup(&name).is_none() {
                    let id = ExternId(self.externals.len() as u32);
                    self.externals.push(ExternDecl {
                        name: name.clone(),
                        ty,
                        span: init.declarator.span,
                    });
                    self.define(&name, Binding::Ext(id));
                }
                continue;
            }
            // Complete array length from the initializer if needed.
            let ty = match (self.types.get(ty).clone(), &init.init) {
                (Type::Array(elem, None), Some(ast::Initializer::List(items, _))) => {
                    self.types.mk_array(elem, Some(items.len() as u64))
                }
                (Type::Array(elem, None), Some(ast::Initializer::Expr(e))) => {
                    if let ast::ExprKind::StrLit(bytes) = &e.kind {
                        self.types.mk_array(elem, Some(bytes.len() as u64 + 1))
                    } else {
                        ty
                    }
                }
                _ => ty,
            };
            let q = self.types.fresh_qual();
            let lid = LocalId(self.cur_locals.len() as u32);
            self.cur_locals.push(Local {
                name: name.clone(),
                ty,
                addr_qual: q,
                is_param: false,
                is_temp: false,
            });
            if let Some(s) = d.specs.split {
                let f = self.cur_func.expect("local decl inside function");
                self.annots.split_seeds.push((SplitSeed::Local(f, lid), s));
            }
            self.define(&name, Binding::Local(lid));
            if let Some(i) = &init.init {
                self.assign_initializer(Lval::local(lid), ty, i)?;
            }
        }
        Ok(())
    }

    /// Flattens a local initializer into `Set` instructions.
    fn assign_initializer(
        &mut self,
        lv: Lval,
        ty: TypeId,
        init: &ast::Initializer,
    ) -> Result<(), Diag> {
        match init {
            ast::Initializer::Expr(e) => {
                // Special-case `char buf[] = "str"` / `char buf[n] = "str"`.
                if let (Type::Array(elem, Some(n)), ast::ExprKind::StrLit(bytes)) =
                    (self.types.get(ty).clone(), &e.kind)
                {
                    if self.types.is_integer(elem) {
                        let char_ty = elem;
                        for i in 0..n {
                            let b = bytes.get(i as usize).copied().unwrap_or(0);
                            let mut l = lv.clone();
                            let int_ty = self.types.mk_int(IntKind::Int);
                            l.offsets.push(Offset::Index(Exp::int(
                                i as i128,
                                IntKind::Int,
                                int_ty,
                            )));
                            self.emit(Instr::Set(
                                l,
                                Exp::int(b as i128, IntKind::Char, char_ty),
                                e.span,
                            ));
                        }
                        return Ok(());
                    }
                }
                let x = self.lower_rvalue(e)?;
                let x = self.coerce(x, ty, e.span)?;
                self.emit(Instr::Set(lv, x, e.span));
                Ok(())
            }
            ast::Initializer::List(items, span) => match self.types.get(ty).clone() {
                Type::Array(elem, len) => {
                    let n = len.unwrap_or(items.len() as u64);
                    if items.len() as u64 > n {
                        return self.err(*span, "too many initializers for array");
                    }
                    let int_ty = self.types.mk_int(IntKind::Int);
                    for (i, item) in items.iter().enumerate() {
                        let mut l = lv.clone();
                        l.offsets
                            .push(Offset::Index(Exp::int(i as i128, IntKind::Int, int_ty)));
                        self.assign_initializer(l, elem, item)?;
                    }
                    // Zero-fill the rest.
                    for i in items.len() as u64..n {
                        let mut l = lv.clone();
                        l.offsets
                            .push(Offset::Index(Exp::int(i as i128, IntKind::Int, int_ty)));
                        self.zero_fill(l, elem, *span)?;
                    }
                    Ok(())
                }
                Type::Comp(cid) => {
                    let fields = self.types.comp(cid).fields.clone();
                    if items.len() > fields.len() {
                        return self.err(*span, "too many initializers for struct");
                    }
                    for (i, item) in items.iter().enumerate() {
                        let mut l = lv.clone();
                        l.offsets.push(Offset::Field(cid, i));
                        self.assign_initializer(l, fields[i].ty, item)?;
                    }
                    for (i, f) in fields.iter().enumerate().skip(items.len()) {
                        let mut l = lv.clone();
                        l.offsets.push(Offset::Field(cid, i));
                        self.zero_fill(l, f.ty, *span)?;
                    }
                    Ok(())
                }
                _ if items.len() == 1 => self.assign_initializer(lv, ty, &items[0]),
                _ => self.err(*span, "brace initializer for scalar type"),
            },
        }
    }

    fn zero_fill(&mut self, lv: Lval, ty: TypeId, span: Span) -> Result<(), Diag> {
        match self.types.get(ty).clone() {
            Type::Int(k) => {
                self.emit(Instr::Set(lv, Exp::int(0, k, ty), span));
                Ok(())
            }
            Type::Float(k) => {
                self.emit(Instr::Set(lv, Exp::Const(Const::Float(0.0, k), ty), span));
                Ok(())
            }
            Type::Ptr(..) => {
                let zero = self.null_ptr(ty, span);
                self.emit(Instr::Set(lv, zero, span));
                Ok(())
            }
            Type::Array(elem, Some(n)) => {
                let int_ty = self.types.mk_int(IntKind::Int);
                for i in 0..n {
                    let mut l = lv.clone();
                    l.offsets
                        .push(Offset::Index(Exp::int(i as i128, IntKind::Int, int_ty)));
                    self.zero_fill(l, elem, span)?;
                }
                Ok(())
            }
            Type::Comp(cid) => {
                let fields = self.types.comp(cid).fields.clone();
                if self.types.comp(cid).is_union {
                    if let Some(f) = fields.first() {
                        let mut l = lv.clone();
                        l.offsets.push(Offset::Field(cid, 0));
                        return self.zero_fill(l, f.ty, span);
                    }
                    return Ok(());
                }
                for (i, f) in fields.iter().enumerate() {
                    let mut l = lv.clone();
                    l.offsets.push(Offset::Field(cid, i));
                    self.zero_fill(l, f.ty, span)?;
                }
                Ok(())
            }
            _ => self.err(span, "cannot zero-initialize this type"),
        }
    }

    /// Lowers a global initializer into an [`Init`] tree (constant context).
    fn lower_initializer(&mut self, init: &ast::Initializer, ty: TypeId) -> Result<Init, Diag> {
        match init {
            ast::Initializer::Expr(e) => {
                if let (Type::Array(elem, _), ast::ExprKind::StrLit(bytes)) =
                    (self.types.get(ty).clone(), &e.kind)
                {
                    if self.types.is_integer(elem) {
                        let mut b = bytes.clone();
                        b.push(0);
                        return Ok(Init::String(b));
                    }
                }
                let x = self.lower_rvalue(e)?;
                let x = self.coerce(x, ty, e.span)?;
                Ok(Init::Scalar(x))
            }
            ast::Initializer::List(items, span) => match self.types.get(ty).clone() {
                Type::Array(elem, _) => {
                    let mut out = Vec::new();
                    for item in items {
                        out.push(self.lower_initializer(item, elem)?);
                    }
                    Ok(Init::Compound(out))
                }
                Type::Comp(cid) => {
                    let fields = self.types.comp(cid).fields.clone();
                    if items.len() > fields.len() {
                        return self.err(*span, "too many initializers for struct");
                    }
                    let mut out = Vec::new();
                    for (i, item) in items.iter().enumerate() {
                        out.push(self.lower_initializer(item, fields[i].ty)?);
                    }
                    Ok(Init::Compound(out))
                }
                _ if items.len() == 1 => self.lower_initializer(&items[0], ty),
                _ => self.err(*span, "brace initializer for scalar type"),
            },
        }
    }

    // ---------------------------------------------------------- expressions

    /// Lowers an expression for its side effects, discarding the value.
    fn lower_expr_discard(&mut self, e: &ast::Expr) -> Result<(), Diag> {
        use ast::ExprKind as K;
        match &e.kind {
            // A call in statement position does not need a result temp.
            K::Call(..) => {
                self.lower_call(e, true)?;
                Ok(())
            }
            K::Assign(..)
            | K::PostIncDec(..)
            | K::Unary(ast::UnOp::PreInc | ast::UnOp::PreDec, _) => {
                self.lower_rvalue(e)?;
                Ok(())
            }
            K::Comma(l, r) => {
                self.lower_expr_discard(l)?;
                self.lower_expr_discard(r)
            }
            _ => {
                // Pure value in statement position: lower (for type errors)
                // and drop.
                self.lower_rvalue(e)?;
                Ok(())
            }
        }
    }

    /// Lowers an expression used as a branch condition (any scalar type).
    fn lower_cond(&mut self, e: &ast::Expr) -> Result<Exp, Diag> {
        let x = self.lower_rvalue(e)?;
        let t = x.ty();
        if self.types.is_arith(t) || self.types.is_ptr(t) {
            Ok(x)
        } else {
            self.err(e.span, "condition must have scalar type")
        }
    }

    /// Lowers an expression to an rvalue, applying array/function decay.
    fn lower_rvalue(&mut self, e: &ast::Expr) -> Result<Exp, Diag> {
        let x = self.lower_expr(e)?;
        Ok(self.decay(x))
    }

    /// Array-to-pointer and function-to-pointer decay.
    fn decay(&mut self, x: Exp) -> Exp {
        match self.types.get(x.ty()).clone() {
            Type::Array(elem, _) => match x {
                Exp::Load(lv, _) => {
                    let pty = self.types.mk_ptr(elem);
                    Exp::StartOf(lv, pty)
                }
                other => other,
            },
            _ => x,
        }
    }

    fn lower_expr(&mut self, e: &ast::Expr) -> Result<Exp, Diag> {
        use ast::ExprKind as K;
        match &e.kind {
            K::IntLit(v, suffix) => {
                let kind = if suffix.unsigned && suffix.long {
                    IntKind::ULong
                } else if suffix.unsigned {
                    IntKind::UInt
                } else if suffix.long {
                    IntKind::Long
                } else if *v <= i32::MAX as u64 {
                    IntKind::Int
                } else {
                    IntKind::Long
                };
                let ty = self.types.mk_int(kind);
                Ok(Exp::int(*v as i128, kind, ty))
            }
            K::FloatLit(v) => {
                let ty = self.types.mk_float(FloatKind::Double);
                Ok(Exp::Const(Const::Float(*v, FloatKind::Double), ty))
            }
            K::CharLit(c) => {
                let ty = self.types.mk_int(IntKind::Int);
                Ok(Exp::int(*c as i128, IntKind::Int, ty))
            }
            K::StrLit(bytes) => {
                let gid = self.string_global(bytes);
                let elem = match self.types.get(self.globals[gid.idx()].ty) {
                    Type::Array(elem, _) => *elem,
                    _ => unreachable!("string global is an array"),
                };
                let pty = self.types.mk_ptr(elem);
                Ok(Exp::StartOf(Box::new(Lval::global(gid)), pty))
            }
            K::Ident(name) => match self.lookup(name).cloned() {
                Some(Binding::Local(l)) => {
                    let ty = self.cur_locals[l.idx()].ty;
                    Ok(Exp::Load(Box::new(Lval::local(l)), ty))
                }
                Some(Binding::Global(g)) => {
                    let ty = self.globals[g.idx()].ty;
                    Ok(Exp::Load(Box::new(Lval::global(g)), ty))
                }
                Some(Binding::Func(f)) => {
                    let fty = self.fn_types[&f.0];
                    let pty = self.types.mk_ptr(fty);
                    Ok(Exp::FnAddr(FnRef::Def(f), pty))
                }
                Some(Binding::Ext(x)) => {
                    let fty = self.externals[x.idx()].ty;
                    let pty = self.types.mk_ptr(fty);
                    Ok(Exp::FnAddr(FnRef::Ext(x), pty))
                }
                Some(Binding::EnumConst(v)) => {
                    let ty = self.types.mk_int(IntKind::Int);
                    Ok(Exp::int(v, IntKind::Int, ty))
                }
                Some(Binding::Typedef(..)) | None => {
                    self.err(e.span, format!("unknown identifier `{name}`"))
                }
            },
            K::Unary(op, inner) => self.lower_unary(*op, inner, e.span),
            K::PostIncDec(inc, inner) => {
                let (lv, ty) = self.lower_lval(inner)?;
                if !self.types.is_arith(ty) && !self.types.is_ptr(ty) {
                    return self.err(e.span, "++/-- requires scalar type");
                }
                let old = self.fresh_temp(ty);
                self.emit(Instr::Set(
                    Lval::local(old),
                    Exp::Load(Box::new(lv.clone()), ty),
                    e.span,
                ));
                let updated = self.incdec_value(&lv, ty, *inc, e.span)?;
                self.emit(Instr::Set(lv, updated, e.span));
                Ok(Exp::Load(Box::new(Lval::local(old)), ty))
            }
            K::Binary(op, l, r) => self.lower_binary(*op, l, r, e.span),
            K::Assign(op, l, r) => {
                let (lv, lty) = self.lower_lval(l)?;
                let value = match op {
                    None => {
                        let x = self.lower_rvalue(r)?;
                        self.coerce(x, lty, e.span)?
                    }
                    Some(op) => {
                        let cur = Exp::Load(Box::new(lv.clone()), lty);
                        let rhs = self.lower_rvalue(r)?;
                        let combined = self.build_binop(*op, cur, rhs, e.span)?;
                        self.coerce(combined, lty, e.span)?
                    }
                };
                self.emit(Instr::Set(lv.clone(), value, e.span));
                Ok(Exp::Load(Box::new(lv), lty))
            }
            K::Cond(c, t, f) => {
                let cond = self.lower_cond(c)?;
                // Lower both arms into sub-blocks writing a shared temp.
                let (t_exp, t_block) = {
                    self.blocks.push(BlockBuilder::new());
                    let r = self.lower_rvalue(t);
                    let b = self.blocks.pop().expect("cond arm");
                    (r?, b)
                };
                let (f_exp, f_block) = {
                    self.blocks.push(BlockBuilder::new());
                    let r = self.lower_rvalue(f);
                    let b = self.blocks.pop().expect("cond arm");
                    (r?, b)
                };
                let result_ty = self.common_type(t_exp.ty(), f_exp.ty(), e.span)?;
                let tmp = self.fresh_temp(result_ty);
                // `coerce` builds cast nodes but never emits instructions, so
                // it is safe to call outside the arm blocks.
                let t_exp = self.coerce(t_exp, result_ty, e.span)?;
                let f_exp = self.coerce(f_exp, result_ty, e.span)?;
                let mut tb = t_block;
                tb.instrs.push(Instr::Set(Lval::local(tmp), t_exp, e.span));
                let mut fb = f_block;
                fb.instrs.push(Instr::Set(Lval::local(tmp), f_exp, e.span));
                self.emit_stmt(Stmt::If(cond, tb.finish(), fb.finish()));
                Ok(Exp::Load(Box::new(Lval::local(tmp)), result_ty))
            }
            K::Cast(tn, inner) => {
                let base = self.type_from_specs(&tn.specs)?;
                let (_, to_ty) = self.apply_declarator(base, &tn.declarator, tn.specs.split)?;
                let x = self.lower_rvalue(inner)?;
                self.cast(x, to_ty, tn.trusted, false, e.span)
            }
            K::SizeofExpr(inner) => {
                // C does not evaluate the operand; lower into a discarded
                // scratch block purely to compute its type.
                self.blocks.push(BlockBuilder::new());
                let r = self.lower_expr(inner);
                self.blocks.pop();
                let x = r?;
                let size = self
                    .types
                    .size_of(x.ty())
                    .map_err(|err| Diag::error(e.span, format!("sizeof: {err}")))?;
                let ty = self.types.mk_int(IntKind::ULong);
                Ok(Exp::SizeOf(x.ty(), size, ty))
            }
            K::SizeofType(tn) => {
                let base = self.type_from_specs(&tn.specs)?;
                let (_, t) = self.apply_declarator(base, &tn.declarator, tn.specs.split)?;
                let size = self
                    .types
                    .size_of(t)
                    .map_err(|err| Diag::error(e.span, format!("sizeof: {err}")))?;
                let ty = self.types.mk_int(IntKind::ULong);
                Ok(Exp::SizeOf(t, size, ty))
            }
            K::Call(..) => {
                let r = self.lower_call(e, false)?;
                Ok(r.expect("non-discarded call returns a value"))
            }
            K::Index(a, i) => {
                let (lv, ty) = self.index_lval(a, i, e.span)?;
                Ok(Exp::Load(Box::new(lv), ty))
            }
            K::Member(obj, field) => {
                let (lv, ty) = self.member_lval(obj, field, false, e.span)?;
                Ok(Exp::Load(Box::new(lv), ty))
            }
            K::Arrow(obj, field) => {
                let (lv, ty) = self.member_lval(obj, field, true, e.span)?;
                Ok(Exp::Load(Box::new(lv), ty))
            }
            K::Comma(l, r) => {
                self.lower_expr_discard(l)?;
                self.lower_rvalue(r)
            }
        }
    }

    fn incdec_value(&mut self, lv: &Lval, ty: TypeId, inc: bool, span: Span) -> Result<Exp, Diag> {
        let cur = Exp::Load(Box::new(lv.clone()), ty);
        let int_ty = self.types.mk_int(IntKind::Int);
        let one = Exp::int(1, IntKind::Int, int_ty);
        if self.types.is_ptr(ty) {
            let op = if inc { BinOp::PlusPI } else { BinOp::MinusPI };
            Ok(Exp::Binop(op, Box::new(cur), Box::new(one), ty))
        } else {
            let op = if inc {
                ast::BinOp::Add
            } else {
                ast::BinOp::Sub
            };
            let v = self.build_binop(op, cur, one, span)?;
            self.coerce(v, ty, span)
        }
    }

    fn lower_unary(&mut self, op: ast::UnOp, inner: &ast::Expr, span: Span) -> Result<Exp, Diag> {
        use ast::UnOp as U;
        match op {
            U::Plus => self.lower_rvalue(inner),
            U::Neg => {
                let x = self.lower_rvalue(inner)?;
                let t = self.promote(x)?;
                let ty = t.ty();
                if !self.types.is_arith(ty) {
                    return self.err(span, "unary minus requires arithmetic type");
                }
                Ok(Exp::Unop(UnOp::Neg, Box::new(t), ty))
            }
            U::BitNot => {
                let x = self.lower_rvalue(inner)?;
                let t = self.promote(x)?;
                let ty = t.ty();
                if !self.types.is_integer(ty) {
                    return self.err(span, "bitwise not requires integer type");
                }
                Ok(Exp::Unop(UnOp::BitNot, Box::new(t), ty))
            }
            U::Not => {
                let x = self.lower_rvalue(inner)?;
                let ty = x.ty();
                if !self.types.is_arith(ty) && !self.types.is_ptr(ty) {
                    return self.err(span, "logical not requires scalar type");
                }
                let int_ty = self.types.mk_int(IntKind::Int);
                Ok(Exp::Unop(UnOp::Not, Box::new(x), int_ty))
            }
            U::Deref => {
                let x = self.lower_rvalue(inner)?;
                let (base, _q) = match self.types.ptr_parts(x.ty()) {
                    Some(p) => p,
                    None => return self.err(span, "dereference of non-pointer"),
                };
                Ok(Exp::Load(Box::new(Lval::deref(x)), base))
            }
            U::Addr => {
                // `&f` for functions is just the function value.
                if let ast::ExprKind::Ident(name) = &inner.kind {
                    match self.lookup(name).cloned() {
                        Some(Binding::Func(_)) | Some(Binding::Ext(_)) => {
                            return self.lower_expr(inner);
                        }
                        _ => {}
                    }
                }
                let (lv, ty) = self.lower_lval(inner)?;
                self.addr_of(lv, ty, span)
            }
            U::PreInc | U::PreDec => {
                let (lv, ty) = self.lower_lval(inner)?;
                if !self.types.is_arith(ty) && !self.types.is_ptr(ty) {
                    return self.err(span, "++/-- requires scalar type");
                }
                let updated = self.incdec_value(&lv, ty, op == U::PreInc, span)?;
                self.emit(Instr::Set(lv.clone(), updated, span));
                Ok(Exp::Load(Box::new(lv), ty))
            }
        }
    }

    /// Builds `&lval`, choosing the paper-mandated qualifier variable: the
    /// variable's address qualifier, the field's address qualifier, or — for
    /// `&a[i]` — pointer arithmetic on the array's decayed pointer.
    fn addr_of(&mut self, lv: Lval, ty: TypeId, span: Span) -> Result<Exp, Diag> {
        // `&a[i]` => decay(a) + i ; `&p[i]` is handled by index_lval which
        // already produced Deref(p + i), covered by the Deref case below.
        if let Some(Offset::Index(_)) = lv.offsets.last() {
            let mut base_lv = lv.clone();
            let idx = match base_lv.offsets.pop() {
                Some(Offset::Index(i)) => i,
                _ => unreachable!("just checked"),
            };
            let base_ty = self.lval_type(&base_lv)?;
            let elem = match self.types.get(base_ty) {
                Type::Array(elem, _) => *elem,
                _ => return self.err(span, "index offset on non-array"),
            };
            let pty = self.types.mk_ptr(elem);
            let start = Exp::StartOf(Box::new(base_lv), pty);
            return Ok(Exp::Binop(
                BinOp::PlusPI,
                Box::new(start),
                Box::new(idx),
                pty,
            ));
        }
        // `&*p` == p.
        if lv.offsets.is_empty() {
            if let LvBase::Deref(e) = lv.base {
                return Ok(*e);
            }
        }
        let qual = match lv.offsets.last() {
            Some(Offset::Field(cid, idx)) => self.types.comp(*cid).fields[*idx].addr_qual,
            Some(Offset::Index(_)) => unreachable!("handled above"),
            None => match &lv.base {
                LvBase::Local(l) => self.cur_locals[l.idx()].addr_qual,
                LvBase::Global(g) => self.globals[g.idx()].addr_qual,
                LvBase::Deref(_) => unreachable!("handled above"),
            },
        };
        let pty = self.types.mk_ptr_with_qual(ty, qual);
        Ok(Exp::AddrOf(Box::new(lv), pty))
    }

    fn lower_binary(
        &mut self,
        op: ast::BinOp,
        l: &ast::Expr,
        r: &ast::Expr,
        span: Span,
    ) -> Result<Exp, Diag> {
        use ast::BinOp as B;
        if matches!(op, B::LogAnd | B::LogOr) {
            // Short-circuit: int tmp; if (l) tmp = (r != 0); else tmp = 0;
            let int_ty = self.types.mk_int(IntKind::Int);
            let tmp = self.fresh_temp(int_ty);
            let cond = self.lower_cond(l)?;
            let rhs_block = self.in_block(|lw| {
                let rx = lw.lower_cond(r)?;
                let zero = Exp::int(0, IntKind::Int, int_ty);
                let as_bool = Exp::Binop(BinOp::Ne, Box::new(rx), Box::new(zero), int_ty);
                lw.emit(Instr::Set(Lval::local(tmp), as_bool, span));
                Ok(())
            })?;
            let const_block = |v: i128| {
                vec![Stmt::Instr(vec![Instr::Set(
                    Lval::local(tmp),
                    Exp::int(v, IntKind::Int, int_ty),
                    span,
                )])]
            };
            let (then_b, else_b) = if op == B::LogAnd {
                (rhs_block, const_block(0))
            } else {
                (const_block(1), rhs_block)
            };
            self.emit_stmt(Stmt::If(cond, then_b, else_b));
            return Ok(Exp::Load(Box::new(Lval::local(tmp)), int_ty));
        }
        let lx = self.lower_rvalue(l)?;
        let rx = self.lower_rvalue(r)?;
        self.build_binop(op, lx, rx, span)
    }

    /// Builds a (non-short-circuit) binary operation with C conversions.
    fn build_binop(&mut self, op: ast::BinOp, lx: Exp, rx: Exp, span: Span) -> Result<Exp, Diag> {
        use ast::BinOp as B;
        let lt = lx.ty();
        let rt = rx.ty();
        let l_ptr = self.types.is_ptr(lt);
        let r_ptr = self.types.is_ptr(rt);

        match op {
            B::Add if l_ptr && self.types.is_integer(rt) => {
                return Ok(Exp::Binop(BinOp::PlusPI, Box::new(lx), Box::new(rx), lt));
            }
            B::Add if r_ptr && self.types.is_integer(lt) => {
                return Ok(Exp::Binop(BinOp::PlusPI, Box::new(rx), Box::new(lx), rt));
            }
            B::Sub if l_ptr && self.types.is_integer(rt) => {
                return Ok(Exp::Binop(BinOp::MinusPI, Box::new(lx), Box::new(rx), lt));
            }
            B::Sub if l_ptr && r_ptr => {
                let ty = self.types.mk_int(IntKind::Long);
                return Ok(Exp::Binop(BinOp::MinusPP, Box::new(lx), Box::new(rx), ty));
            }
            _ => {}
        }

        if op.is_comparison() {
            let int_ty = self.types.mk_int(IntKind::Int);
            let bop = comparison_op(op);
            if l_ptr || r_ptr {
                // Pointer comparisons (possibly against the null constant).
                let (lx, rx) = if l_ptr && !r_ptr {
                    let rx = self.coerce(rx, lt, span)?;
                    (lx, rx)
                } else if r_ptr && !l_ptr {
                    let lx = self.coerce(lx, rt, span)?;
                    (lx, rx)
                } else {
                    (lx, rx)
                };
                return Ok(Exp::Binop(bop, Box::new(lx), Box::new(rx), int_ty));
            }
            let (lx, rx) = self.arith_pair(lx, rx, span)?;
            return Ok(Exp::Binop(bop, Box::new(lx), Box::new(rx), int_ty));
        }

        // Shifts: usual promotion of each operand separately.
        if matches!(op, B::Shl | B::Shr) {
            let lx = self.promote(lx)?;
            let rx = self.promote(rx)?;
            let ty = lx.ty();
            if !self.types.is_integer(ty) || !self.types.is_integer(rx.ty()) {
                return self.err(span, "shift requires integer operands");
            }
            let bop = if op == B::Shl { BinOp::Shl } else { BinOp::Shr };
            return Ok(Exp::Binop(bop, Box::new(lx), Box::new(rx), ty));
        }

        let (lx, rx) = self.arith_pair(lx, rx, span)?;
        let ty = lx.ty();
        let bop = match op {
            B::Add => BinOp::Add,
            B::Sub => BinOp::Sub,
            B::Mul => BinOp::Mul,
            B::Div => BinOp::Div,
            B::Rem => BinOp::Rem,
            B::BitAnd => BinOp::BitAnd,
            B::BitXor => BinOp::BitXor,
            B::BitOr => BinOp::BitOr,
            B::Shl | B::Shr | B::LogAnd | B::LogOr => unreachable!("handled above"),
            _ => return self.err(span, "invalid operand types"),
        };
        if matches!(
            bop,
            BinOp::Rem | BinOp::BitAnd | BinOp::BitXor | BinOp::BitOr
        ) && !self.types.is_integer(ty)
        {
            return self.err(span, "operator requires integer operands");
        }
        Ok(Exp::Binop(bop, Box::new(lx), Box::new(rx), ty))
    }

    /// Integer promotion of a single operand.
    fn promote(&mut self, x: Exp) -> Result<Exp, Diag> {
        let ty = x.ty();
        if let Type::Int(k) = self.types.get(ty) {
            let promoted = match k {
                IntKind::Char
                | IntKind::SChar
                | IntKind::UChar
                | IntKind::Short
                | IntKind::UShort => Some(IntKind::Int),
                _ => None,
            };
            if let Some(pk) = promoted {
                let pt = self.types.mk_int(pk);
                return self.numeric_cast(x, pt);
            }
        }
        Ok(x)
    }

    /// Usual arithmetic conversions for a pair of operands.
    fn arith_pair(&mut self, lx: Exp, rx: Exp, span: Span) -> Result<(Exp, Exp), Diag> {
        let lx = self.promote(lx)?;
        let rx = self.promote(rx)?;
        let lt = lx.ty();
        let rt = rx.ty();
        if !self.types.is_arith(lt) || !self.types.is_arith(rt) {
            return self.err(span, "operator requires arithmetic operands");
        }
        let common = self.common_arith(lt, rt);
        let lx = self.numeric_cast(lx, common)?;
        let rx = self.numeric_cast(rx, common)?;
        Ok((lx, rx))
    }

    fn common_arith(&mut self, a: TypeId, b: TypeId) -> TypeId {
        use FloatKind::*;
        let at = self.types.get(a).clone();
        let bt = self.types.get(b).clone();
        match (at, bt) {
            (Type::Float(Double), _) | (_, Type::Float(Double)) => self.types.mk_float(Double),
            (Type::Float(Float), _) | (_, Type::Float(Float)) => self.types.mk_float(Float),
            (Type::Int(x), Type::Int(y)) => {
                let sx = self.types.machine.int_size(x);
                let sy = self.types.machine.int_size(y);
                let k = if sx > sy {
                    x
                } else if sy > sx {
                    y
                } else if !x.is_signed() {
                    x
                } else {
                    y
                };
                self.types.mk_int(k)
            }
            _ => a,
        }
    }

    /// The common type for the two arms of `?:`.
    fn common_type(&mut self, a: TypeId, b: TypeId, span: Span) -> Result<TypeId, Diag> {
        if self.types.same_type(a, b) {
            return Ok(a);
        }
        if self.types.is_arith(a) && self.types.is_arith(b) {
            return Ok(self.common_arith(a, b));
        }
        if self.types.is_ptr(a) && self.types.is_ptr(b) {
            // Prefer the non-void side; otherwise the first.
            let av = matches!(
                self.types
                    .ptr_parts(a)
                    .map(|(b, _)| self.types.get(b).clone()),
                Some(Type::Void)
            );
            return Ok(if av { b } else { a });
        }
        if self.types.is_ptr(a) && self.types.is_integer(b) {
            return Ok(a);
        }
        if self.types.is_integer(a) && self.types.is_ptr(b) {
            return Ok(b);
        }
        self.err(span, "incompatible types in conditional expression")
    }

    /// A numeric (arith-to-arith) conversion; no cast site recorded.
    fn numeric_cast(&mut self, x: Exp, to: TypeId) -> Result<Exp, Diag> {
        if self.types.same_type(x.ty(), to) {
            return Ok(x);
        }
        let id = CastId(self.casts.len() as u32);
        self.casts.push(CastSite {
            from: x.ty(),
            to,
            trusted: false,
            implicit: true,
            from_zero: x.is_zero(),
            alloc: false,
            span: Span::DUMMY,
        });
        Ok(Exp::Cast(id, Box::new(x), to))
    }

    fn null_ptr(&mut self, ptr_ty: TypeId, span: Span) -> Exp {
        let int_ty = self.types.mk_int(IntKind::Int);
        let zero = Exp::int(0, IntKind::Int, int_ty);
        let id = CastId(self.casts.len() as u32);
        self.casts.push(CastSite {
            from: int_ty,
            to: ptr_ty,
            trusted: false,
            implicit: true,
            from_zero: true,
            alloc: false,
            span,
        });
        Exp::Cast(id, Box::new(zero), ptr_ty)
    }

    /// Records and builds a cast from `x` to `to`.
    fn cast(
        &mut self,
        x: Exp,
        to: TypeId,
        trusted: bool,
        implicit: bool,
        span: Span,
    ) -> Result<Exp, Diag> {
        let from = x.ty();
        // Reject nonsensical casts early; pointer<->pointer, pointer<->int
        // and arith<->arith are all allowed.
        let ok = (self.types.is_arith(from) || self.types.is_ptr(from))
            && (self.types.is_arith(to)
                || self.types.is_ptr(to)
                || matches!(self.types.get(to), Type::Void));
        if !ok {
            return self.err(span, "invalid cast");
        }
        if matches!(self.types.get(to), Type::Void) {
            // (void)e: evaluate and discard; represent as the operand.
            return Ok(x);
        }
        let id = CastId(self.casts.len() as u32);
        self.casts.push(CastSite {
            from,
            to,
            trusted,
            implicit,
            from_zero: x.is_zero(),
            alloc: self.is_fresh_alloc(&x),
            span,
        });
        Ok(Exp::Cast(id, Box::new(x), to))
    }

    /// Whether `x` loads a temporary that was just assigned the result of
    /// an allocator call (`(T *)malloc(n)` and friends): such casts type
    /// fresh memory and are statically safe.
    fn is_fresh_alloc(&self, x: &Exp) -> bool {
        let lv = match x {
            Exp::Load(lv, _) => lv,
            _ => return false,
        };
        let tmp = match (&lv.base, lv.offsets.is_empty()) {
            (LvBase::Local(l), true) => *l,
            _ => return false,
        };
        if !self.cur_locals.get(tmp.idx()).is_some_and(|l| l.is_temp) {
            return false;
        }
        let last = self.blocks.last().and_then(|b| b.instrs.last());
        match last {
            Some(Instr::Call(Some(ret), Callee::Extern(x), _, _)) => {
                matches!((&ret.base, ret.offsets.is_empty()), (LvBase::Local(l), true) if *l == tmp)
                    && is_alloc_fn(&self.externals[x.idx()].name)
            }
            _ => false,
        }
    }

    /// Implicit conversion of `x` to `to` (assignment, argument, return).
    fn coerce(&mut self, x: Exp, to: TypeId, span: Span) -> Result<Exp, Diag> {
        let from = x.ty();
        if self.types.same_type(from, to) {
            return Ok(x);
        }
        if self.types.is_arith(from) && self.types.is_arith(to) {
            return self.numeric_cast(x, to);
        }
        if self.types.is_ptr(to) && (self.types.is_ptr(from) || self.types.is_integer(from)) {
            return self.cast(x, to, false, true, span);
        }
        if self.types.is_integer(to) && self.types.is_ptr(from) {
            return self.cast(x, to, false, true, span);
        }
        self.err(
            span,
            format!(
                "incompatible types: cannot convert `{}` to `{}`",
                self.types.display(from),
                self.types.display(to)
            ),
        )
    }

    // --------------------------------------------------------------- lvalues

    /// The type of an lvalue (base type plus offsets).
    fn lval_type(&self, lv: &Lval) -> Result<TypeId, Diag> {
        let mut ty = match &lv.base {
            LvBase::Local(l) => self.cur_locals[l.idx()].ty,
            LvBase::Global(g) => self.globals[g.idx()].ty,
            LvBase::Deref(e) => match self.types.ptr_parts(e.ty()) {
                Some((base, _)) => base,
                None => return Err(Diag::error(Span::DUMMY, "deref of non-pointer lvalue base")),
            },
        };
        for off in &lv.offsets {
            ty = match off {
                Offset::Field(cid, idx) => self.types.comp(*cid).fields[*idx].ty,
                Offset::Index(_) => match self.types.get(ty) {
                    Type::Array(elem, _) => *elem,
                    _ => return Err(Diag::error(Span::DUMMY, "index offset on non-array")),
                },
            };
        }
        Ok(ty)
    }

    /// Lowers an expression as an assignable lvalue.
    fn lower_lval(&mut self, e: &ast::Expr) -> Result<(Lval, TypeId), Diag> {
        use ast::ExprKind as K;
        match &e.kind {
            K::Ident(name) => match self.lookup(name).cloned() {
                Some(Binding::Local(l)) => {
                    let ty = self.cur_locals[l.idx()].ty;
                    Ok((Lval::local(l), ty))
                }
                Some(Binding::Global(g)) => {
                    let ty = self.globals[g.idx()].ty;
                    Ok((Lval::global(g), ty))
                }
                _ => self.err(e.span, format!("`{name}` is not an assignable variable")),
            },
            K::Unary(ast::UnOp::Deref, inner) => {
                let x = self.lower_rvalue(inner)?;
                let (base, _) = match self.types.ptr_parts(x.ty()) {
                    Some(p) => p,
                    None => return self.err(e.span, "dereference of non-pointer"),
                };
                Ok((Lval::deref(x), base))
            }
            K::Index(a, i) => self.index_lval(a, i, e.span),
            K::Member(obj, field) => self.member_lval(obj, field, false, e.span),
            K::Arrow(obj, field) => self.member_lval(obj, field, true, e.span),
            K::Cast(..) => self.err(e.span, "cast expressions are not lvalues"),
            _ => self.err(e.span, "expression is not an lvalue"),
        }
    }

    fn index_lval(
        &mut self,
        a: &ast::Expr,
        i: &ast::Expr,
        span: Span,
    ) -> Result<(Lval, TypeId), Diag> {
        let ix = self.lower_rvalue(i)?;
        if !self.types.is_integer(ix.ty()) {
            return self.err(span, "array index must have integer type");
        }
        // If the base is an array lvalue, use an Index offset (checked
        // against the static bound); otherwise pointer arithmetic + deref.
        let base = self.lower_expr(a)?;
        match self.types.get(base.ty()).clone() {
            Type::Array(elem, _) => match base {
                Exp::Load(mut lv, _) => {
                    lv.offsets.push(Offset::Index(ix));
                    Ok((*lv, elem))
                }
                other => {
                    // An array rvalue that is not a load (cannot happen for
                    // well-formed C); decay defensively.
                    let decayed = self.decay(other);
                    let pty = decayed.ty();
                    let moved = Exp::Binop(BinOp::PlusPI, Box::new(decayed), Box::new(ix), pty);
                    Ok((Lval::deref(moved), elem))
                }
            },
            Type::Ptr(elem, _) => {
                let pty = base.ty();
                let moved = Exp::Binop(BinOp::PlusPI, Box::new(base), Box::new(ix), pty);
                Ok((Lval::deref(moved), elem))
            }
            _ => self.err(span, "indexed expression is neither array nor pointer"),
        }
    }

    fn member_lval(
        &mut self,
        obj: &ast::Expr,
        field: &str,
        arrow: bool,
        span: Span,
    ) -> Result<(Lval, TypeId), Diag> {
        let (mut lv, comp_ty) = if arrow {
            let x = self.lower_rvalue(obj)?;
            let (base, _) = match self.types.ptr_parts(x.ty()) {
                Some(p) => p,
                None => return self.err(span, "`->` on non-pointer"),
            };
            (Lval::deref(x), base)
        } else {
            self.lower_lval(obj)?
        };
        let cid = match self.types.get(comp_ty) {
            Type::Comp(c) => *c,
            _ => return self.err(span, "member access on non-struct"),
        };
        if !self.types.comp(cid).defined {
            return self.err(
                span,
                format!("struct `{}` is incomplete here", self.types.comp(cid).name),
            );
        }
        let idx = match self.types.field_index(cid, field) {
            Some(i) => i,
            None => {
                return self.err(
                    span,
                    format!("no field `{field}` in `{}`", self.types.comp(cid).name),
                )
            }
        };
        let fty = self.types.comp(cid).fields[idx].ty;
        lv.offsets.push(Offset::Field(cid, idx));
        Ok((lv, fty))
    }

    // ----------------------------------------------------------------- calls

    fn lower_call(&mut self, e: &ast::Expr, discard: bool) -> Result<Option<Exp>, Diag> {
        let (callee_ast, args_ast) = match &e.kind {
            ast::ExprKind::Call(f, args) => (f.as_ref(), args),
            _ => unreachable!("lower_call on non-call"),
        };
        // Resolve the callee.
        let (callee, sig) = match &callee_ast.kind {
            ast::ExprKind::Ident(name) => match self.lookup(name).cloned() {
                Some(Binding::Func(f)) => {
                    let sig = match self.types.get(self.fn_types[&f.0]) {
                        Type::Func(s) => s.clone(),
                        _ => unreachable!(),
                    };
                    (Callee::Func(f), sig)
                }
                Some(Binding::Ext(x)) => {
                    let sig = match self.types.get(self.externals[x.idx()].ty) {
                        Type::Func(s) => s.clone(),
                        _ => unreachable!(),
                    };
                    (Callee::Extern(x), sig)
                }
                Some(_) => {
                    let x = self.lower_rvalue(callee_ast)?;
                    let sig = self.fn_ptr_sig(x.ty(), callee_ast.span)?;
                    (Callee::Ptr(x), sig)
                }
                None => {
                    return self.err(
                        callee_ast.span,
                        format!("call to undeclared function `{name}`"),
                    )
                }
            },
            _ => {
                let x = self.lower_rvalue(callee_ast)?;
                let sig = self.fn_ptr_sig(x.ty(), callee_ast.span)?;
                (Callee::Ptr(x), sig)
            }
        };
        if args_ast.len() < sig.params.len() || (args_ast.len() > sig.params.len() && !sig.varargs)
        {
            return self.err(
                e.span,
                format!(
                    "wrong number of arguments: expected {}{}, got {}",
                    sig.params.len(),
                    if sig.varargs { "+" } else { "" },
                    args_ast.len()
                ),
            );
        }
        // CCured helper externals (`__ptrof`, `__mkptr`, ...) are
        // polymorphic: their arguments are passed without coercion so that
        // no spurious cast sites are fabricated at wrapper boundaries.
        let polymorphic_helper = matches!(
            &callee,
            Callee::Extern(x) if self.externals[x.idx()].name.starts_with("__")
        );
        let mut args = Vec::with_capacity(args_ast.len());
        for (i, a) in args_ast.iter().enumerate() {
            let x = self.lower_rvalue(a)?;
            let x = if polymorphic_helper {
                x
            } else if i < sig.params.len() {
                self.coerce(x, sig.params[i], a.span)?
            } else {
                // Default argument promotions for varargs.
                let x = self.promote(x)?;
                if matches!(self.types.get(x.ty()), Type::Float(FloatKind::Float)) {
                    let d = self.types.mk_float(FloatKind::Double);
                    self.numeric_cast(x, d)?
                } else {
                    x
                }
            };
            args.push(x);
        }
        let is_void = matches!(self.types.get(sig.ret), Type::Void);
        if discard || is_void {
            self.emit(Instr::Call(None, callee, args, e.span));
            if is_void && !discard {
                return self.err(e.span, "void value used in expression");
            }
            return Ok(None);
        }
        let tmp = self.fresh_temp(sig.ret);
        self.emit(Instr::Call(Some(Lval::local(tmp)), callee, args, e.span));
        Ok(Some(Exp::Load(Box::new(Lval::local(tmp)), sig.ret)))
    }

    fn fn_ptr_sig(&self, ty: TypeId, span: Span) -> Result<FuncSig, Diag> {
        let (base, _) = match self.types.ptr_parts(ty) {
            Some(p) => p,
            None => return Err(Diag::error(span, "called value is not a function pointer")),
        };
        match self.types.get(base) {
            Type::Func(s) => Ok(s.clone()),
            _ => Err(Diag::error(span, "called value is not a function pointer")),
        }
    }

    // --------------------------------------------------------------- strings

    fn string_global(&mut self, bytes: &[u8]) -> GlobalId {
        if let Some(&g) = self.str_globals.get(bytes) {
            return g;
        }
        let char_ty = self.types.mk_int(IntKind::Char);
        let arr = self.types.mk_array(char_ty, Some(bytes.len() as u64 + 1));
        let name = format!("__str{}", self.next_str);
        self.next_str += 1;
        let q = self.types.fresh_qual();
        let mut data = bytes.to_vec();
        data.push(0);
        let id = GlobalId(self.globals.len() as u32);
        self.globals.push(Global {
            name,
            ty: arr,
            addr_qual: q,
            init: Some(Init::String(data)),
            is_extern: false,
            span: Span::DUMMY,
        });
        self.str_globals.insert(bytes.to_vec(), id);
        id
    }
}

fn comparison_op(op: ast::BinOp) -> BinOp {
    match op {
        ast::BinOp::Lt => BinOp::Lt,
        ast::BinOp::Gt => BinOp::Gt,
        ast::BinOp::Le => BinOp::Le,
        ast::BinOp::Ge => BinOp::Ge,
        ast::BinOp::Eq => BinOp::Eq,
        ast::BinOp::Ne => BinOp::Ne,
        _ => unreachable!("not a comparison"),
    }
}

/// Whether an external function name is a known allocator whose result is
/// freshly typed by the receiving cast (treated polymorphically, as in
/// CCured's handling of `malloc`).
pub fn is_alloc_fn(name: &str) -> bool {
    matches!(
        name,
        "malloc"
            | "calloc"
            | "realloc"
            | "free"
            | "xmalloc"
            | "xcalloc"
            | "emalloc"
            | "ap_palloc"
            | "ap_pcalloc"
    )
}

fn parse_two_strings(s: &str) -> Option<(String, String)> {
    let s = s.trim().strip_prefix('(')?.strip_suffix(')')?;
    let mut parts = Vec::new();
    for p in s.split(',') {
        let p = p.trim().strip_prefix('"')?.strip_suffix('"')?;
        parts.push(p.to_string());
    }
    if parts.len() == 2 {
        let b = parts.pop()?;
        let a = parts.pop()?;
        Some((a, b))
    } else {
        None
    }
}

fn parse_ident_arg(s: &str) -> Option<String> {
    let s = s.trim().strip_prefix('(')?.strip_suffix(')')?.trim();
    if !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
        Some(s.to_string())
    } else {
        None
    }
}

// -------------------------------------------------------- forward-call fixup

/// Redirects the address of an external that turned out to be defined.
fn rewrite_fn_addr(e: &mut Exp, map: &HashMap<u32, FuncId>) {
    if let Exp::FnAddr(r, _) = e {
        if let FnRef::Ext(x) = *r {
            if let Some(&def) = map.get(&x.0) {
                *r = FnRef::Def(def);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower_ok(src: &str) -> Program {
        let tu = ccured_ast::parse_translation_unit(src).expect("parse");
        lower_translation_unit(&tu).expect("lower")
    }

    fn lower_err(src: &str) -> String {
        // Either frontend stage may reject: the parser catches malformed
        // declarations (e.g. unknown type names), lowering catches the rest.
        match ccured_ast::parse_translation_unit(src) {
            Err(d) => d.msg,
            Ok(tu) => match lower_translation_unit(&tu) {
                Err(d) => d.msg,
                Ok(_) => panic!("expected a frontend error for:\n{src}"),
            },
        }
    }

    #[test]
    fn reports_unknown_identifier() {
        let msg = lower_err("int main(void) { return mystery; }");
        assert!(msg.contains("mystery"), "{msg}");
    }

    #[test]
    fn reports_call_to_undeclared_function() {
        let msg = lower_err("int main(void) { return frob(1); }");
        assert!(msg.contains("undeclared") && msg.contains("frob"), "{msg}");
    }

    #[test]
    fn reports_deref_of_non_pointer() {
        let msg = lower_err("int main(void) { int x = 1; return *x; }");
        assert!(msg.contains("non-pointer"), "{msg}");
    }

    #[test]
    fn reports_missing_struct_field() {
        let msg = lower_err(
            "struct P { int x; };\n\
             int main(void) { struct P p; p.x = 1; return p.z; }",
        );
        assert!(msg.contains("no field `z`"), "{msg}");
    }

    #[test]
    fn reports_member_access_on_non_struct() {
        let msg = lower_err("int main(void) { int x = 1; return x.field; }");
        assert!(msg.contains("non-struct"), "{msg}");
    }

    #[test]
    fn reports_wrong_argument_count() {
        let msg = lower_err(
            "int f(int a, int b) { return a + b; }\n\
             int main(void) { return f(1); }",
        );
        assert!(msg.contains("expected 2") && msg.contains("got 1"), "{msg}");
    }

    #[test]
    fn reports_struct_redefinition() {
        let msg =
            lower_err("struct S { int a; }; struct S { int b; }; int main(void) { return 0; }");
        assert!(msg.contains("redefinition"), "{msg}");
    }

    #[test]
    fn reports_negative_array_length() {
        let msg = lower_err("int main(void) { int a[-3]; return 0; }");
        assert!(msg.contains("negative"), "{msg}");
    }

    #[test]
    fn reports_continue_outside_loop() {
        let msg = lower_err("int main(void) { continue; }");
        assert!(msg.contains("continue"), "{msg}");
    }

    #[test]
    fn reports_void_value_use() {
        let msg = lower_err(
            "void f(void) { }\n\
             int main(void) { return f(); }",
        );
        assert!(msg.contains("void value"), "{msg}");
    }

    #[test]
    fn reports_incompatible_assignment() {
        let msg = lower_err(
            "struct A { int x; };\n\
             int main(void) { struct A a; int *p; p = a; return 0; }",
        );
        assert!(
            msg.contains("incompatible") || msg.contains("not an lvalue"),
            "{msg}"
        );
    }

    #[test]
    fn reports_variadic_definition() {
        let msg = lower_err("int f(int a, ...) { return a; }");
        assert!(msg.contains("variadic"), "{msg}");
    }

    #[test]
    fn reports_unknown_type_name() {
        let msg = lower_err("int main(void) { size_t n = 0; return (int)n; }");
        assert!(msg.contains("size_t"), "{msg}");
    }

    #[test]
    fn string_literals_are_interned() {
        let p = lower_ok(
            "char *a = \"dup\"; char *b = \"dup\"; char *c = \"other\";\n\
             int main(void) { return 0; }",
        );
        let strs = p
            .globals
            .iter()
            .filter(|g| g.name.starts_with("__str"))
            .count();
        assert_eq!(strs, 2, "identical literals share a global");
    }

    #[test]
    fn alloc_cast_detection_positive_and_negative() {
        let p = lower_ok(
            "extern void *malloc(unsigned long n);\n\
             int *get(int *q) { return q; }\n\
             int main(void) {\n\
               int *fresh = (int *)malloc(8);          /* alloc cast */\n\
               void *v = (void *)fresh;\n\
               int *laundered = (int *)v;              /* NOT an alloc cast */\n\
               return (fresh != 0) + (laundered != 0);\n\
             }",
        );
        let allocs = p.casts.iter().filter(|c| c.alloc).count();
        assert_eq!(allocs, 1, "exactly the direct malloc cast is alloc-typed");
    }

    #[test]
    fn wrapper_pragma_parsing() {
        let p = lower_ok(
            "#pragma ccuredWrapperOf(\"w\", \"f\")\n\
             #pragma ccured_split(g)\n\
             #pragma ccured_trusted(t)\n\
             #pragma something_else entirely\n\
             int main(void) { return 0; }",
        );
        assert!(
            matches!(&p.pragmas[0], CcuredPragma::WrapperOf { wrapper, external }
            if wrapper == "w" && external == "f")
        );
        assert!(matches!(&p.pragmas[1], CcuredPragma::SplitVar(n) if n == "g"));
        assert!(matches!(&p.pragmas[2], CcuredPragma::TrustedFn(n) if n == "t"));
        assert!(matches!(&p.pragmas[3], CcuredPragma::Unknown(_)));
    }

    #[test]
    fn for_loop_continue_goes_through_step() {
        // The continue in a for loop must execute the step: lowered as a
        // goto to a label before the step instructions.
        let p = lower_ok(
            "int main(void) {\n\
               int s = 0;\n\
               for (int i = 0; i < 4; i++) { if (i == 2) continue; s += i; }\n\
               return s;\n\
             }",
        );
        let mut has_goto = false;
        visit::for_each_stmt(&p.functions[0].body, &mut |s| {
            has_goto |= matches!(s, Stmt::Goto(l) if l.starts_with("__cont"));
        });
        assert!(has_goto);
    }

    #[test]
    fn every_syntactic_pointer_gets_its_own_qual() {
        let p = lower_ok("int *a; int *b; int main(void) { return 0; }");
        let qa = p.types.ptr_parts(p.globals[0].ty).unwrap().1;
        let qb = p.types.ptr_parts(p.globals[1].ty).unwrap().1;
        assert_ne!(qa, qb, "per-occurrence qualifier variables");
    }

    #[test]
    fn implicit_conversions_record_cast_sites() {
        let p = lower_ok(
            "void take(void *v) { }\n\
             int main(void) { int x = 1; take(&x); long n = x; return (int)n; }",
        );
        // &x -> void* records an implicit pointer cast.
        assert!(p
            .casts
            .iter()
            .any(|c| c.implicit && p.types.is_ptr(c.from) && p.types.is_ptr(c.to)));
    }
}
