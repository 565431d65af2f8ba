//! Recursive-descent parser for the ccured-rs C subset.
//!
//! The parser tracks typedef names in lexical scopes to resolve the classic
//! C ambiguities (declaration vs. expression statement, cast vs. call).

use crate::ast::*;
use crate::diag::Diag;
use crate::lex::{lex, Keyword, Punct, Token, TokenKind};
use crate::span::Span;
use std::collections::HashMap;

/// Parses a complete source file into a [`TranslationUnit`].
///
/// # Errors
///
/// Returns the first lexical or syntactic error.
///
/// # Examples
///
/// ```
/// let tu = ccured_ast::parse_translation_unit("int x = 1;").unwrap();
/// assert_eq!(tu.decls.len(), 1);
/// ```
pub fn parse_translation_unit(src: &str) -> Result<TranslationUnit, Diag> {
    let tokens = lex(src)?;
    Parser::new(tokens).translation_unit()
}

/// Deepest nesting the parser accepts, Clang's default bracket depth.
///
/// Every recursive cycle of the grammar opens one level for what it
/// contains: the statements of a block or under a compound statement (so
/// each `else if` arm is one level), the operand of a prefix operator,
/// cast or `sizeof`, a parenthesized or indexed expression, call
/// arguments, each postfix operator after a chain's first, an
/// assignment's right side, a conditional's arms, nested declarators,
/// parameter lists and array lengths, struct/union/enum bodies and
/// initializer lists. Past the limit the parse fails with a [`Diag`], so
/// every later recursive stage, from lowering to both execution engines,
/// stays within a 2 MiB thread stack.
pub const MAX_NESTING: u32 = 256;

/// The parser state: a token cursor plus typedef scopes.
///
/// The cursor never moves backwards (`peek_nth` only looks ahead), so
/// consuming a token moves its payload (identifier names, string bytes)
/// out of the stream instead of cloning it.
#[derive(Debug)]
pub struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Levels open now (see [`MAX_NESTING`]).
    depth: u32,
    /// Innermost scope last; `true` means the name is a typedef.
    scopes: Vec<HashMap<String, bool>>,
}

impl Parser {
    /// Creates a parser over a lexed token stream (must end with `Eof`).
    pub fn new(tokens: Vec<Token>) -> Self {
        Parser {
            tokens,
            pos: 0,
            depth: 0,
            scopes: vec![HashMap::new()],
        }
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].kind
    }

    fn peek_nth(&self, n: usize) -> &TokenKind {
        &self.tokens[(self.pos + n).min(self.tokens.len() - 1)].kind
    }

    fn span(&self) -> Span {
        self.tokens[self.pos.min(self.tokens.len() - 1)].span
    }

    fn prev_span(&self) -> Span {
        self.tokens[self.pos.saturating_sub(1).min(self.tokens.len() - 1)].span
    }

    /// Consumes the current token and returns it. Its payload is moved
    /// out, which is sound because no token is looked at once passed.
    fn bump(&mut self) -> Token {
        let last = self.tokens.len() - 1;
        if self.pos == last {
            return self.tokens[last].clone();
        }
        let t = &mut self.tokens[self.pos];
        self.pos += 1;
        Token {
            kind: std::mem::replace(&mut t.kind, TokenKind::Eof),
            span: t.span,
        }
    }

    /// Consumes the current token, which the caller has seen to be an
    /// identifier, and returns its name.
    fn bump_ident(&mut self) -> String {
        match self.bump().kind {
            TokenKind::Ident(name) => name,
            other => unreachable!("bump_ident at {other}"),
        }
    }

    /// Opens one nesting level, failing past [`MAX_NESTING`]. The caller
    /// closes it.
    fn open_level(&mut self) -> Result<(), Diag> {
        if self.depth == MAX_NESTING {
            return Err(Diag::error(
                self.span(),
                format!("nesting too deep: more than {MAX_NESTING} levels"),
            ));
        }
        self.depth += 1;
        Ok(())
    }

    /// Runs `parse` one nesting level deeper, failing past [`MAX_NESTING`].
    fn nested<T>(&mut self, parse: impl FnOnce(&mut Self) -> Result<T, Diag>) -> Result<T, Diag> {
        self.open_level()?;
        let r = parse(self);
        self.depth -= 1;
        r
    }

    /// A statement nested under another: one level deeper.
    fn sub_statement(&mut self) -> Result<Box<Stmt>, Diag> {
        self.nested(Self::statement).map(Box::new)
    }

    fn at_punct(&self, p: Punct) -> bool {
        matches!(self.peek(), TokenKind::P(q) if *q == p)
    }

    fn at_kw(&self, k: Keyword) -> bool {
        matches!(self.peek(), TokenKind::Kw(q) if *q == k)
    }

    fn eat_punct(&mut self, p: Punct) -> bool {
        if self.at_punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, k: Keyword) -> bool {
        if self.at_kw(k) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: Punct) -> Result<Span, Diag> {
        if self.at_punct(p) {
            Ok(self.bump().span)
        } else {
            Err(Diag::error(
                self.span(),
                format!("expected `{}`, found {}", p.as_str(), self.peek()),
            ))
        }
    }

    fn expect_ident(&mut self) -> Result<(String, Span), Diag> {
        match self.peek() {
            TokenKind::Ident(_) => {
                let span = self.span();
                Ok((self.bump_ident(), span))
            }
            other => Err(Diag::error(
                self.span(),
                format!("expected identifier, found {other}"),
            )),
        }
    }

    fn push_scope(&mut self) {
        self.scopes.push(HashMap::new());
    }

    fn pop_scope(&mut self) {
        self.scopes.pop();
        debug_assert!(!self.scopes.is_empty(), "global scope must remain");
    }

    fn define_name(&mut self, name: &str, is_typedef: bool) {
        self.scopes
            .last_mut()
            .expect("scope stack is never empty")
            .insert(name.to_string(), is_typedef);
    }

    fn is_typedef_name(&self, name: &str) -> bool {
        for scope in self.scopes.iter().rev() {
            if let Some(&is_td) = scope.get(name) {
                return is_td;
            }
        }
        false
    }

    /// Whether the current token can begin declaration specifiers.
    fn starts_decl_specs(&self) -> bool {
        match self.peek() {
            TokenKind::Kw(k) => matches!(
                k,
                Keyword::Void
                    | Keyword::Char
                    | Keyword::Short
                    | Keyword::Int
                    | Keyword::Long
                    | Keyword::Signed
                    | Keyword::Unsigned
                    | Keyword::Float
                    | Keyword::Double
                    | Keyword::Struct
                    | Keyword::Union
                    | Keyword::Enum
                    | Keyword::Typedef
                    | Keyword::Extern
                    | Keyword::Static
                    | Keyword::Const
                    | Keyword::Volatile
                    | Keyword::Split
                    | Keyword::NoSplit
            ),
            TokenKind::Ident(name) => self.is_typedef_name(name),
            _ => false,
        }
    }

    /// Parses the whole token stream as a translation unit.
    pub fn translation_unit(&mut self) -> Result<TranslationUnit, Diag> {
        let mut decls = Vec::new();
        loop {
            match self.peek() {
                TokenKind::Eof => break,
                TokenKind::Pragma(_) => {
                    let tok = self.bump();
                    if let TokenKind::Pragma(raw) = tok.kind {
                        decls.push(ExtDecl::Pragma(PragmaDirective {
                            raw,
                            span: tok.span,
                        }));
                    }
                }
                TokenKind::P(Punct::Semi) => {
                    self.bump();
                }
                _ => decls.push(self.external_declaration()?),
            }
        }
        Ok(TranslationUnit { decls })
    }

    fn external_declaration(&mut self) -> Result<ExtDecl, Diag> {
        let start = self.span();
        let specs = self.decl_specs()?;
        // Bare `struct S { ... };` style declaration.
        if self.eat_punct(Punct::Semi) {
            return Ok(ExtDecl::Decl(Declaration {
                specs,
                inits: Vec::new(),
                span: start.to(self.prev_span()),
            }));
        }
        let declarator = self.declarator(false)?;
        if declarator.is_function() && self.at_punct(Punct::LBrace) {
            // A function definition: register its name, then parse the body
            // with parameters in scope.
            if let Some(name) = &declarator.name {
                self.define_name(name, false);
            }
            self.push_scope();
            if let Some(Derived::Function(params, _)) = declarator.derived.first() {
                for p in params {
                    if let Some(name) = &p.declarator.name {
                        self.define_name(name, false);
                    }
                }
            }
            let body_start = self.span();
            self.expect_punct(Punct::LBrace)?;
            let mut body = Vec::new();
            while !self.at_punct(Punct::RBrace) {
                if matches!(self.peek(), TokenKind::Eof) {
                    return Err(Diag::error(body_start, "unterminated function body"));
                }
                body.push(self.statement()?);
            }
            self.expect_punct(Punct::RBrace)?;
            self.pop_scope();
            let span = start.to(self.prev_span());
            return Ok(ExtDecl::Function(FunctionDef {
                specs,
                declarator,
                body,
                span,
            }));
        }
        let decl = self.finish_declaration(start, specs, declarator)?;
        Ok(ExtDecl::Decl(decl))
    }

    /// Parses the init-declarator list after the first declarator.
    fn finish_declaration(
        &mut self,
        start: Span,
        specs: DeclSpecs,
        first: Declarator,
    ) -> Result<Declaration, Diag> {
        let is_typedef = specs.storage == Some(Storage::Typedef);
        let mut inits = Vec::new();
        let mut declarator = first;
        loop {
            if let Some(name) = &declarator.name {
                self.define_name(name, is_typedef);
            }
            let init = if self.eat_punct(Punct::Eq) {
                Some(self.initializer()?)
            } else {
                None
            };
            inits.push(InitDeclarator { declarator, init });
            if !self.eat_punct(Punct::Comma) {
                break;
            }
            declarator = self.declarator(false)?;
        }
        self.expect_punct(Punct::Semi)?;
        Ok(Declaration {
            specs,
            inits,
            span: start.to(self.prev_span()),
        })
    }

    fn declaration(&mut self) -> Result<Declaration, Diag> {
        let start = self.span();
        let specs = self.decl_specs()?;
        if self.eat_punct(Punct::Semi) {
            return Ok(Declaration {
                specs,
                inits: Vec::new(),
                span: start.to(self.prev_span()),
            });
        }
        let first = self.declarator(false)?;
        self.finish_declaration(start, specs, first)
    }

    // ---------------------------------------------------------------- specs

    fn decl_specs(&mut self) -> Result<DeclSpecs, Diag> {
        let start = self.span();
        let mut storage = None;
        let mut split = None;
        let mut is_const = false;
        let mut signedness: Option<bool> = None;
        let mut size: Option<IntSize> = None;
        let mut base: Option<TypeSpec> = None;
        let mut saw_int_kw = false;

        loop {
            match *self.peek() {
                TokenKind::Kw(kw) => match kw {
                    Keyword::Typedef | Keyword::Extern | Keyword::Static => {
                        if storage.is_some() {
                            return Err(Diag::error(self.span(), "multiple storage classes"));
                        }
                        storage = Some(match kw {
                            Keyword::Typedef => Storage::Typedef,
                            Keyword::Extern => Storage::Extern,
                            _ => Storage::Static,
                        });
                        self.bump();
                    }
                    Keyword::Const | Keyword::Volatile => {
                        is_const |= kw == Keyword::Const;
                        self.bump();
                    }
                    Keyword::Split => {
                        split = Some(true);
                        self.bump();
                    }
                    Keyword::NoSplit => {
                        split = Some(false);
                        self.bump();
                    }
                    Keyword::Signed => {
                        signedness = Some(true);
                        self.bump();
                    }
                    Keyword::Unsigned => {
                        signedness = Some(false);
                        self.bump();
                    }
                    Keyword::Short => {
                        size = Some(IntSize::Short);
                        self.bump();
                    }
                    Keyword::Long => {
                        size = Some(match size {
                            Some(IntSize::Long) => IntSize::LongLong,
                            _ => IntSize::Long,
                        });
                        self.bump();
                    }
                    Keyword::Void => {
                        self.set_base(&mut base, TypeSpec::Void)?;
                        self.bump();
                    }
                    Keyword::Char => {
                        self.set_base(&mut base, TypeSpec::Char { signed: None })?;
                        self.bump();
                    }
                    Keyword::Int => {
                        saw_int_kw = true;
                        self.bump();
                    }
                    Keyword::Float => {
                        self.set_base(&mut base, TypeSpec::Float)?;
                        self.bump();
                    }
                    Keyword::Double => {
                        self.set_base(&mut base, TypeSpec::Double)?;
                        self.bump();
                    }
                    Keyword::Struct | Keyword::Union => {
                        let spec = self.comp_spec(kw == Keyword::Union)?;
                        self.set_base(&mut base, TypeSpec::Comp(spec))?;
                    }
                    Keyword::Enum => {
                        let spec = self.enum_spec()?;
                        self.set_base(&mut base, TypeSpec::Enum(spec))?;
                    }
                    _ => break,
                },
                TokenKind::Ident(ref name)
                    if base.is_none()
                        && !saw_int_kw
                        && signedness.is_none()
                        && size.is_none()
                        && self.is_typedef_name(name) =>
                {
                    base = Some(TypeSpec::Name(self.bump_ident()));
                }
                _ => break,
            }
        }

        // Resolve integer-flavored combinations.
        let type_spec = match base {
            Some(TypeSpec::Char { .. }) => TypeSpec::Char { signed: signedness },
            Some(ts) => {
                if signedness.is_some() || size.is_some() || saw_int_kw {
                    return Err(Diag::error(start, "conflicting type specifiers"));
                }
                ts
            }
            None => {
                if saw_int_kw || signedness.is_some() || size.is_some() {
                    TypeSpec::Int {
                        signed: signedness.unwrap_or(true),
                        size: size.unwrap_or(IntSize::Int),
                    }
                } else {
                    return Err(Diag::error(
                        self.span(),
                        format!("expected type specifier, found {}", self.peek()),
                    ));
                }
            }
        };

        Ok(DeclSpecs {
            storage,
            type_spec,
            split,
            is_const,
            span: start.to(self.prev_span()),
        })
    }

    fn set_base(&self, base: &mut Option<TypeSpec>, ts: TypeSpec) -> Result<(), Diag> {
        if base.is_some() {
            return Err(Diag::error(
                self.span(),
                "multiple base types in declaration",
            ));
        }
        *base = Some(ts);
        Ok(())
    }

    fn comp_spec(&mut self, is_union: bool) -> Result<CompSpec, Diag> {
        let start = self.span();
        self.bump(); // struct / union
        let tag = match self.peek() {
            TokenKind::Ident(_) => Some(self.bump_ident()),
            _ => None,
        };
        let fields = if self.eat_punct(Punct::LBrace) {
            let groups = self.nested(Self::field_groups)?;
            self.expect_punct(Punct::RBrace)?;
            Some(groups)
        } else {
            if tag.is_none() {
                return Err(Diag::error(
                    start,
                    "anonymous struct/union requires a definition",
                ));
            }
            None
        };
        Ok(CompSpec {
            is_union,
            tag,
            fields,
            span: start.to(self.prev_span()),
        })
    }

    /// The field declarations of a struct/union body, up to its `}`.
    fn field_groups(&mut self) -> Result<Vec<FieldGroup>, Diag> {
        let mut groups = Vec::new();
        while !self.at_punct(Punct::RBrace) {
            let gstart = self.span();
            let specs = self.decl_specs()?;
            let mut declarators = Vec::new();
            if !self.at_punct(Punct::Semi) {
                loop {
                    declarators.push(self.declarator(false)?);
                    if !self.eat_punct(Punct::Comma) {
                        break;
                    }
                }
            }
            self.expect_punct(Punct::Semi)?;
            groups.push(FieldGroup {
                specs,
                declarators,
                span: gstart.to(self.prev_span()),
            });
        }
        Ok(groups)
    }

    fn enum_spec(&mut self) -> Result<EnumSpec, Diag> {
        let start = self.span();
        self.bump(); // enum
        let tag = match self.peek() {
            TokenKind::Ident(_) => Some(self.bump_ident()),
            _ => None,
        };
        let items = if self.eat_punct(Punct::LBrace) {
            let items = self.nested(Self::enumerators)?;
            self.expect_punct(Punct::RBrace)?;
            Some(items)
        } else {
            if tag.is_none() {
                return Err(Diag::error(start, "anonymous enum requires a definition"));
            }
            None
        };
        Ok(EnumSpec {
            tag,
            items,
            span: start.to(self.prev_span()),
        })
    }

    /// The enumerators of an enum body, up to its `}`.
    fn enumerators(&mut self) -> Result<Vec<Enumerator>, Diag> {
        let mut items = Vec::new();
        while !self.at_punct(Punct::RBrace) {
            let (name, ispan) = self.expect_ident()?;
            let value = if self.eat_punct(Punct::Eq) {
                Some(self.conditional_expr()?)
            } else {
                None
            };
            // Enumerators are ordinary (non-typedef) names afterwards.
            self.define_name(&name, false);
            items.push(Enumerator {
                name,
                value,
                span: ispan.to(self.prev_span()),
            });
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        Ok(items)
    }

    // ----------------------------------------------------------- declarators

    /// Parses a (possibly abstract) declarator.
    ///
    /// `abstract_ok` permits omitting the name (type names, parameters).
    fn declarator(&mut self, abstract_ok: bool) -> Result<Declarator, Diag> {
        let start = self.span();
        let mut ptrs: Vec<PtrQuals> = Vec::new();
        while self.at_punct(Punct::Star) {
            self.bump();
            ptrs.push(self.ptr_quals());
        }

        let (name, mut derived) = self.direct_declarator(abstract_ok)?;

        // Pointers bind last (outermost in the derived chain), innermost `*`
        // parsed first ends up deepest.
        for q in ptrs.into_iter().rev() {
            derived.push(Derived::Pointer(q));
        }

        Ok(Declarator {
            name,
            derived,
            span: start.to(self.prev_span()),
        })
    }

    fn ptr_quals(&mut self) -> PtrQuals {
        let mut q = PtrQuals::default();
        loop {
            match self.peek() {
                TokenKind::Kw(Keyword::Safe) => {
                    q.kind = Some(PtrKindAnnot::Safe);
                    self.bump();
                }
                TokenKind::Kw(Keyword::Seq) => {
                    q.kind = Some(PtrKindAnnot::Seq);
                    self.bump();
                }
                TokenKind::Kw(Keyword::Wild) => {
                    q.kind = Some(PtrKindAnnot::Wild);
                    self.bump();
                }
                TokenKind::Kw(Keyword::Rtti) => {
                    q.kind = Some(PtrKindAnnot::Rtti);
                    self.bump();
                }
                TokenKind::Kw(Keyword::Split) => {
                    q.split = Some(true);
                    self.bump();
                }
                TokenKind::Kw(Keyword::NoSplit) => {
                    q.split = Some(false);
                    self.bump();
                }
                TokenKind::Kw(Keyword::Const) | TokenKind::Kw(Keyword::Volatile) => {
                    q.is_const = true;
                    self.bump();
                }
                _ => return q,
            }
        }
    }

    fn direct_declarator(
        &mut self,
        abstract_ok: bool,
    ) -> Result<(Option<String>, Vec<Derived>), Diag> {
        let mut name = None;
        let mut inner: Vec<Derived> = Vec::new();

        match self.peek() {
            TokenKind::Ident(_) => name = Some(self.bump_ident()),
            TokenKind::P(Punct::LParen) if self.lparen_is_nested_declarator(abstract_ok) => {
                self.bump();
                let d = self.nested(|p| p.declarator(abstract_ok))?;
                self.expect_punct(Punct::RParen)?;
                name = d.name;
                inner = d.derived;
            }
            _ if abstract_ok => {}
            other => {
                return Err(Diag::error(
                    self.span(),
                    format!("expected declarator, found {other}"),
                ))
            }
        }

        let mut postfix: Vec<Derived> = Vec::new();
        loop {
            if self.eat_punct(Punct::LBracket) {
                let len = if self.at_punct(Punct::RBracket) {
                    None
                } else {
                    Some(Box::new(self.nested(Self::conditional_expr)?))
                };
                self.expect_punct(Punct::RBracket)?;
                postfix.push(Derived::Array(len));
            } else if self.at_punct(Punct::LParen) {
                self.bump();
                let (params, varargs) = self.nested(Self::param_list)?;
                postfix.push(Derived::Function(params, varargs));
            } else {
                break;
            }
        }

        inner.extend(postfix);
        Ok((name, inner))
    }

    /// Decides whether `(` after a declarator base starts a nested declarator
    /// (e.g., `(*f)`) or a parameter list (e.g., `f(int)`).
    fn lparen_is_nested_declarator(&self, abstract_ok: bool) -> bool {
        match self.peek_nth(1) {
            TokenKind::P(Punct::Star) | TokenKind::P(Punct::LParen) => true,
            TokenKind::Ident(n) => {
                if self.is_typedef_name(n) {
                    false // parameter list with a typedef-named type
                } else {
                    // A non-typedef identifier directly inside parentheses is
                    // a nested declarator name, not a K&R parameter.
                    true
                }
            }
            TokenKind::P(Punct::RParen) if abstract_ok => {
                // `int (*)(void)` style: for abstract declarators, `()` after
                // nothing is a function with no parameters.
                false
            }
            _ => false,
        }
    }

    fn param_list(&mut self) -> Result<(Vec<ParamDecl>, bool), Diag> {
        let mut params = Vec::new();
        let mut varargs = false;
        if self.eat_punct(Punct::RParen) {
            return Ok((params, varargs));
        }
        // `(void)` means no parameters.
        if self.at_kw(Keyword::Void) && matches!(self.peek_nth(1), TokenKind::P(Punct::RParen)) {
            self.bump();
            self.bump();
            return Ok((params, varargs));
        }
        loop {
            if self.eat_punct(Punct::Ellipsis) {
                varargs = true;
                break;
            }
            let pstart = self.span();
            let specs = self.decl_specs()?;
            let declarator = self.declarator(true)?;
            params.push(ParamDecl {
                specs,
                declarator,
                span: pstart.to(self.prev_span()),
            });
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        self.expect_punct(Punct::RParen)?;
        Ok((params, varargs))
    }

    fn type_name(&mut self) -> Result<TypeName, Diag> {
        let start = self.span();
        let trusted = self.eat_kw(Keyword::Trusted);
        let specs = self.decl_specs()?;
        let mut trusted = trusted;
        // `__TRUSTED` may also follow the specifiers: `(struct S * __TRUSTED)`.
        let declarator = self.declarator_with_trusted(&mut trusted)?;
        Ok(TypeName {
            specs,
            declarator,
            trusted,
            span: start.to(self.prev_span()),
        })
    }

    /// Like [`Parser::declarator`] for abstract declarators, but strips a
    /// trailing `__TRUSTED` marker on any pointer level into `trusted`.
    fn declarator_with_trusted(&mut self, trusted: &mut bool) -> Result<Declarator, Diag> {
        let start = self.span();
        let mut ptrs: Vec<PtrQuals> = Vec::new();
        while self.at_punct(Punct::Star) {
            self.bump();
            if self.eat_kw(Keyword::Trusted) {
                *trusted = true;
            }
            ptrs.push(self.ptr_quals());
            if self.eat_kw(Keyword::Trusted) {
                *trusted = true;
            }
        }
        let (name, mut derived) = self.direct_declarator(true)?;
        for q in ptrs.into_iter().rev() {
            derived.push(Derived::Pointer(q));
        }
        Ok(Declarator {
            name,
            derived,
            span: start.to(self.prev_span()),
        })
    }

    // ------------------------------------------------------------ statements

    fn statement(&mut self) -> Result<Stmt, Diag> {
        let start = self.span();
        // Label: `ident :` (but not `default:`/`case`).
        if let TokenKind::Ident(name) = self.peek() {
            if matches!(self.peek_nth(1), TokenKind::P(Punct::Colon)) && !self.is_typedef_name(name)
            {
                let name = self.bump_ident();
                self.bump();
                let inner = self.sub_statement()?;
                return Ok(Stmt {
                    kind: StmtKind::Label(name, inner),
                    span: start.to(self.prev_span()),
                });
            }
        }
        if self.starts_decl_specs() {
            let decl = self.declaration()?;
            return Ok(Stmt {
                span: decl.span,
                kind: StmtKind::Decl(decl),
            });
        }
        // `size_t n = 0;` — an undeclared name in type position would
        // otherwise fall through to the expression parser and produce a
        // misleading `expected \`;\`` at the second identifier.
        if let (TokenKind::Ident(name), TokenKind::Ident(_)) = (self.peek(), self.peek_nth(1)) {
            if !self.is_typedef_name(name) {
                return Err(Diag::error(
                    self.span(),
                    format!("unknown type name `{name}`"),
                ));
            }
        }
        match self.peek() {
            TokenKind::P(Punct::LBrace) => {
                self.bump();
                self.push_scope();
                let stmts = self.nested(|p| {
                    let mut stmts = Vec::new();
                    while !p.at_punct(Punct::RBrace) {
                        if matches!(p.peek(), TokenKind::Eof) {
                            return Err(Diag::error(start, "unterminated block"));
                        }
                        stmts.push(p.statement()?);
                    }
                    Ok(stmts)
                })?;
                self.expect_punct(Punct::RBrace)?;
                self.pop_scope();
                Ok(Stmt {
                    kind: StmtKind::Block(stmts),
                    span: start.to(self.prev_span()),
                })
            }
            TokenKind::P(Punct::Semi) => {
                self.bump();
                Ok(Stmt {
                    kind: StmtKind::Expr(None),
                    span: start,
                })
            }
            TokenKind::Kw(Keyword::If) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let cond = self.expr()?;
                self.expect_punct(Punct::RParen)?;
                let then = self.sub_statement()?;
                let els = if self.eat_kw(Keyword::Else) {
                    Some(self.sub_statement()?)
                } else {
                    None
                };
                Ok(Stmt {
                    kind: StmtKind::If(cond, then, els),
                    span: start.to(self.prev_span()),
                })
            }
            TokenKind::Kw(Keyword::While) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let cond = self.expr()?;
                self.expect_punct(Punct::RParen)?;
                let body = self.sub_statement()?;
                Ok(Stmt {
                    kind: StmtKind::While(cond, body),
                    span: start.to(self.prev_span()),
                })
            }
            TokenKind::Kw(Keyword::Do) => {
                self.bump();
                let body = self.sub_statement()?;
                if !self.eat_kw(Keyword::While) {
                    return Err(Diag::error(self.span(), "expected `while` after do-body"));
                }
                self.expect_punct(Punct::LParen)?;
                let cond = self.expr()?;
                self.expect_punct(Punct::RParen)?;
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt {
                    kind: StmtKind::DoWhile(body, cond),
                    span: start.to(self.prev_span()),
                })
            }
            TokenKind::Kw(Keyword::For) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                self.push_scope();
                let init = if self.at_punct(Punct::Semi) {
                    self.bump();
                    None
                } else if self.starts_decl_specs() {
                    Some(Box::new(ForInit::Decl(self.declaration()?)))
                } else {
                    let e = self.expr()?;
                    self.expect_punct(Punct::Semi)?;
                    Some(Box::new(ForInit::Expr(e)))
                };
                let cond = if self.at_punct(Punct::Semi) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect_punct(Punct::Semi)?;
                let step = if self.at_punct(Punct::RParen) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect_punct(Punct::RParen)?;
                let body = self.sub_statement()?;
                self.pop_scope();
                Ok(Stmt {
                    kind: StmtKind::For(init, cond, step, body),
                    span: start.to(self.prev_span()),
                })
            }
            TokenKind::Kw(Keyword::Switch) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let scrut = self.expr()?;
                self.expect_punct(Punct::RParen)?;
                let body = self.sub_statement()?;
                Ok(Stmt {
                    kind: StmtKind::Switch(scrut, body),
                    span: start.to(self.prev_span()),
                })
            }
            TokenKind::Kw(Keyword::Case) => {
                self.bump();
                let value = self.conditional_expr()?;
                self.expect_punct(Punct::Colon)?;
                let inner = self.sub_statement()?;
                Ok(Stmt {
                    kind: StmtKind::Case(value, inner),
                    span: start.to(self.prev_span()),
                })
            }
            TokenKind::Kw(Keyword::Default) => {
                self.bump();
                self.expect_punct(Punct::Colon)?;
                let inner = self.sub_statement()?;
                Ok(Stmt {
                    kind: StmtKind::Default(inner),
                    span: start.to(self.prev_span()),
                })
            }
            TokenKind::Kw(Keyword::Break) => {
                self.bump();
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt {
                    kind: StmtKind::Break,
                    span: start.to(self.prev_span()),
                })
            }
            TokenKind::Kw(Keyword::Continue) => {
                self.bump();
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt {
                    kind: StmtKind::Continue,
                    span: start.to(self.prev_span()),
                })
            }
            TokenKind::Kw(Keyword::Return) => {
                self.bump();
                let value = if self.at_punct(Punct::Semi) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt {
                    kind: StmtKind::Return(value),
                    span: start.to(self.prev_span()),
                })
            }
            TokenKind::Kw(Keyword::Goto) => {
                self.bump();
                let (label, _) = self.expect_ident()?;
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt {
                    kind: StmtKind::Goto(label),
                    span: start.to(self.prev_span()),
                })
            }
            _ => {
                let e = self.expr()?;
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt {
                    kind: StmtKind::Expr(Some(e)),
                    span: start.to(self.prev_span()),
                })
            }
        }
    }

    fn initializer(&mut self) -> Result<Initializer, Diag> {
        if self.at_punct(Punct::LBrace) {
            let start = self.span();
            self.bump();
            let mut items = Vec::new();
            while !self.at_punct(Punct::RBrace) {
                items.push(self.nested(Self::initializer)?);
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
            self.expect_punct(Punct::RBrace)?;
            Ok(Initializer::List(items, start.to(self.prev_span())))
        } else {
            Ok(Initializer::Expr(self.assignment_expr()?))
        }
    }

    // ----------------------------------------------------------- expressions

    /// Parses a full (comma-including) expression.
    pub fn expr(&mut self) -> Result<Expr, Diag> {
        let mut e = self.assignment_expr()?;
        while self.at_punct(Punct::Comma) {
            self.bump();
            let rhs = self.assignment_expr()?;
            let span = e.span.to(rhs.span);
            e = Expr {
                kind: ExprKind::Comma(Box::new(e), Box::new(rhs)),
                span,
            };
        }
        Ok(e)
    }

    fn assignment_expr(&mut self) -> Result<Expr, Diag> {
        let lhs = self.conditional_expr()?;
        let op = match self.peek() {
            TokenKind::P(Punct::Eq) => Some(None),
            TokenKind::P(Punct::PlusEq) => Some(Some(BinOp::Add)),
            TokenKind::P(Punct::MinusEq) => Some(Some(BinOp::Sub)),
            TokenKind::P(Punct::StarEq) => Some(Some(BinOp::Mul)),
            TokenKind::P(Punct::SlashEq) => Some(Some(BinOp::Div)),
            TokenKind::P(Punct::PercentEq) => Some(Some(BinOp::Rem)),
            TokenKind::P(Punct::ShlEq) => Some(Some(BinOp::Shl)),
            TokenKind::P(Punct::ShrEq) => Some(Some(BinOp::Shr)),
            TokenKind::P(Punct::AmpEq) => Some(Some(BinOp::BitAnd)),
            TokenKind::P(Punct::CaretEq) => Some(Some(BinOp::BitXor)),
            TokenKind::P(Punct::PipeEq) => Some(Some(BinOp::BitOr)),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let rhs = self.nested(Self::assignment_expr)?;
            let span = lhs.span.to(rhs.span);
            return Ok(Expr {
                kind: ExprKind::Assign(op, Box::new(lhs), Box::new(rhs)),
                span,
            });
        }
        Ok(lhs)
    }

    fn conditional_expr(&mut self) -> Result<Expr, Diag> {
        let cond = self.binary_expr(0)?;
        if self.eat_punct(Punct::Question) {
            let then = self.nested(Self::expr)?;
            self.expect_punct(Punct::Colon)?;
            let els = self.nested(Self::conditional_expr)?;
            let span = cond.span.to(els.span);
            return Ok(Expr {
                kind: ExprKind::Cond(Box::new(cond), Box::new(then), Box::new(els)),
                span,
            });
        }
        Ok(cond)
    }

    fn binop_at(&self) -> Option<(BinOp, u8)> {
        let (op, prec) = match self.peek() {
            TokenKind::P(Punct::PipePipe) => (BinOp::LogOr, 1),
            TokenKind::P(Punct::AmpAmp) => (BinOp::LogAnd, 2),
            TokenKind::P(Punct::Pipe) => (BinOp::BitOr, 3),
            TokenKind::P(Punct::Caret) => (BinOp::BitXor, 4),
            TokenKind::P(Punct::Amp) => (BinOp::BitAnd, 5),
            TokenKind::P(Punct::EqEq) => (BinOp::Eq, 6),
            TokenKind::P(Punct::Ne) => (BinOp::Ne, 6),
            TokenKind::P(Punct::Lt) => (BinOp::Lt, 7),
            TokenKind::P(Punct::Gt) => (BinOp::Gt, 7),
            TokenKind::P(Punct::Le) => (BinOp::Le, 7),
            TokenKind::P(Punct::Ge) => (BinOp::Ge, 7),
            TokenKind::P(Punct::Shl) => (BinOp::Shl, 8),
            TokenKind::P(Punct::Shr) => (BinOp::Shr, 8),
            TokenKind::P(Punct::Plus) => (BinOp::Add, 9),
            TokenKind::P(Punct::Minus) => (BinOp::Sub, 9),
            TokenKind::P(Punct::Star) => (BinOp::Mul, 10),
            TokenKind::P(Punct::Slash) => (BinOp::Div, 10),
            TokenKind::P(Punct::Percent) => (BinOp::Rem, 10),
            _ => return None,
        };
        Some((op, prec))
    }

    fn binary_expr(&mut self, min_prec: u8) -> Result<Expr, Diag> {
        let mut lhs = self.cast_expr()?;
        while let Some((op, prec)) = self.binop_at() {
            if prec < min_prec {
                break;
            }
            self.bump();
            let rhs = self.binary_expr(prec + 1)?;
            let span = lhs.span.to(rhs.span);
            lhs = Expr {
                kind: ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)),
                span,
            };
        }
        Ok(lhs)
    }

    /// Whether `(` at the current position begins a type name (cast/sizeof).
    fn lparen_starts_type(&self) -> bool {
        debug_assert!(self.at_punct(Punct::LParen));
        match self.peek_nth(1) {
            TokenKind::Kw(k) => matches!(
                k,
                Keyword::Void
                    | Keyword::Char
                    | Keyword::Short
                    | Keyword::Int
                    | Keyword::Long
                    | Keyword::Signed
                    | Keyword::Unsigned
                    | Keyword::Float
                    | Keyword::Double
                    | Keyword::Struct
                    | Keyword::Union
                    | Keyword::Enum
                    | Keyword::Const
                    | Keyword::Volatile
                    | Keyword::Split
                    | Keyword::NoSplit
                    | Keyword::Trusted
            ),
            TokenKind::Ident(n) => self.is_typedef_name(n),
            _ => false,
        }
    }

    fn cast_expr(&mut self) -> Result<Expr, Diag> {
        if self.at_punct(Punct::LParen) && self.lparen_starts_type() {
            let start = self.span();
            self.bump();
            let ty = Box::new(self.type_name()?);
            self.expect_punct(Punct::RParen)?;
            let inner = self.nested(Self::cast_expr)?;
            let span = start.to(inner.span);
            return Ok(Expr {
                kind: ExprKind::Cast(ty, Box::new(inner)),
                span,
            });
        }
        self.unary_expr()
    }

    fn unary_expr(&mut self) -> Result<Expr, Diag> {
        let start = self.span();
        let op = match self.peek() {
            TokenKind::P(Punct::Minus) => Some(UnOp::Neg),
            TokenKind::P(Punct::Plus) => Some(UnOp::Plus),
            TokenKind::P(Punct::Bang) => Some(UnOp::Not),
            TokenKind::P(Punct::Tilde) => Some(UnOp::BitNot),
            TokenKind::P(Punct::Star) => Some(UnOp::Deref),
            TokenKind::P(Punct::Amp) => Some(UnOp::Addr),
            TokenKind::P(Punct::Inc) => Some(UnOp::PreInc),
            TokenKind::P(Punct::Dec) => Some(UnOp::PreDec),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let inner = self.nested(Self::cast_expr)?;
            let span = start.to(inner.span);
            return Ok(Expr {
                kind: ExprKind::Unary(op, Box::new(inner)),
                span,
            });
        }
        if self.at_kw(Keyword::Sizeof) {
            self.bump();
            if self.at_punct(Punct::LParen) && self.lparen_starts_type() {
                self.bump();
                let ty = Box::new(self.type_name()?);
                self.expect_punct(Punct::RParen)?;
                return Ok(Expr {
                    kind: ExprKind::SizeofType(ty),
                    span: start.to(self.prev_span()),
                });
            }
            let inner = self.nested(Self::unary_expr)?;
            let span = start.to(inner.span);
            return Ok(Expr {
                kind: ExprKind::SizeofExpr(Box::new(inner)),
                span,
            });
        }
        self.postfix_expr()
    }

    /// A primary expression and its postfix operators. The first operator
    /// stays at the primary's level, like `x++` as a statement; each later
    /// one wraps a postfix expression and opens one nesting level. All of
    /// them close when the postfix expression returns.
    fn postfix_expr(&mut self) -> Result<Expr, Diag> {
        let outer = self.depth;
        let r = self.postfix_chain();
        self.depth = outer;
        r
    }

    fn postfix_chain(&mut self) -> Result<Expr, Diag> {
        let mut e = self.primary_expr()?;
        let mut first = true;
        loop {
            let op = match self.peek() {
                TokenKind::P(
                    op @ (Punct::LParen
                    | Punct::LBracket
                    | Punct::Dot
                    | Punct::Arrow
                    | Punct::Inc
                    | Punct::Dec),
                ) => *op,
                _ => return Ok(e),
            };
            if !first {
                self.open_level()?;
            }
            first = false;
            self.bump();
            let lo = e.span;
            let base = Box::new(e);
            let kind = match op {
                Punct::LParen => {
                    let mut args = Vec::new();
                    if !self.at_punct(Punct::RParen) {
                        loop {
                            args.push(self.nested(Self::assignment_expr)?);
                            if !self.eat_punct(Punct::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect_punct(Punct::RParen)?;
                    ExprKind::Call(base, args)
                }
                Punct::LBracket => {
                    let idx = self.nested(Self::expr)?;
                    self.expect_punct(Punct::RBracket)?;
                    ExprKind::Index(base, Box::new(idx))
                }
                Punct::Dot => ExprKind::Member(base, self.expect_ident()?.0),
                Punct::Arrow => ExprKind::Arrow(base, self.expect_ident()?.0),
                Punct::Inc => ExprKind::PostIncDec(true, base),
                _ => ExprKind::PostIncDec(false, base),
            };
            e = Expr {
                kind,
                span: lo.to(self.prev_span()),
            };
        }
    }

    fn primary_expr(&mut self) -> Result<Expr, Diag> {
        let span = self.span();
        match self.peek() {
            TokenKind::P(Punct::LParen) => {
                self.bump();
                let e = self.nested(Self::expr)?;
                self.expect_punct(Punct::RParen)?;
                return Ok(e);
            }
            TokenKind::IntLit(..)
            | TokenKind::FloatLit(_)
            | TokenKind::CharLit(_)
            | TokenKind::StrLit(_)
            | TokenKind::Ident(_) => {}
            other => {
                return Err(Diag::error(
                    span,
                    format!("expected expression, found {other}"),
                ))
            }
        }
        let kind = match self.bump().kind {
            TokenKind::IntLit(v, suffix) => ExprKind::IntLit(v, suffix),
            TokenKind::FloatLit(v) => ExprKind::FloatLit(v),
            TokenKind::CharLit(c) => ExprKind::CharLit(c),
            TokenKind::StrLit(bytes) => ExprKind::StrLit(bytes),
            TokenKind::Ident(name) => ExprKind::Ident(name),
            other => unreachable!("primary_expr at {other}"),
        };
        Ok(Expr { kind, span })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> TranslationUnit {
        match parse_translation_unit(src) {
            Ok(tu) => tu,
            Err(d) => panic!("parse failed: {d} in:\n{src}"),
        }
    }

    fn first_fn(tu: &TranslationUnit) -> &FunctionDef {
        tu.decls
            .iter()
            .find_map(|d| match d {
                ExtDecl::Function(f) => Some(f),
                _ => None,
            })
            .expect("no function in translation unit")
    }

    #[test]
    fn parses_simple_function() {
        let tu = parse_ok("int main(void) { return 0; }");
        let f = first_fn(&tu);
        assert_eq!(f.declarator.name.as_deref(), Some("main"));
        assert_eq!(f.body.len(), 1);
    }

    #[test]
    fn parses_global_variable_with_init() {
        let tu = parse_ok("int x = 42;");
        match &tu.decls[0] {
            ExtDecl::Decl(d) => {
                assert_eq!(d.inits.len(), 1);
                assert!(d.inits[0].init.is_some());
            }
            other => panic!("expected decl, got {other:?}"),
        }
    }

    #[test]
    fn parses_pointer_declarators() {
        let tu = parse_ok("int **pp; char *s;");
        match &tu.decls[0] {
            ExtDecl::Decl(d) => {
                let derived = &d.inits[0].declarator.derived;
                assert_eq!(derived.len(), 2);
                assert!(matches!(derived[0], Derived::Pointer(_)));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parses_array_of_pointers() {
        let tu = parse_ok("int *a[10];");
        match &tu.decls[0] {
            ExtDecl::Decl(d) => {
                let derived = &d.inits[0].declarator.derived;
                assert!(matches!(derived[0], Derived::Array(Some(_))));
                assert!(matches!(derived[1], Derived::Pointer(_)));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parses_pointer_to_function() {
        let tu = parse_ok("double (*area)(int r);");
        match &tu.decls[0] {
            ExtDecl::Decl(d) => {
                let dr = &d.inits[0].declarator;
                assert_eq!(dr.name.as_deref(), Some("area"));
                assert!(matches!(dr.derived[0], Derived::Pointer(_)));
                assert!(matches!(dr.derived[1], Derived::Function(..)));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parses_function_returning_pointer() {
        let tu = parse_ok("char *strchr_wrapper(char *str, int chr) { return str; }");
        let f = first_fn(&tu);
        assert!(matches!(f.declarator.derived[0], Derived::Function(..)));
        assert!(matches!(f.declarator.derived[1], Derived::Pointer(_)));
    }

    #[test]
    fn parses_struct_definition_and_use() {
        let tu = parse_ok(
            "struct Figure { double (*area)(struct Figure *obj); };\n\
             struct Circle { double (*area)(struct Figure *obj); int radius; } *c;",
        );
        assert_eq!(tu.decls.len(), 2);
        match &tu.decls[1] {
            ExtDecl::Decl(d) => {
                assert_eq!(d.inits.len(), 1);
                match &d.specs.type_spec {
                    TypeSpec::Comp(cs) => {
                        assert_eq!(cs.tag.as_deref(), Some("Circle"));
                        assert_eq!(cs.fields.as_ref().unwrap().len(), 2);
                    }
                    _ => panic!(),
                }
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parses_typedef_and_uses_name() {
        let tu = parse_ok("typedef unsigned long size_t; size_t n = 3;");
        assert_eq!(tu.decls.len(), 2);
        match &tu.decls[1] {
            ExtDecl::Decl(d) => assert!(matches!(d.specs.type_spec, TypeSpec::Name(_))),
            _ => panic!(),
        }
    }

    #[test]
    fn typedef_name_cast_vs_call() {
        // `(T)(x)` is a cast when T is a typedef, a call otherwise.
        let tu = parse_ok("typedef int T; int f(int x) { return (T)(x); }");
        let f = first_fn(&tu);
        match &f.body[0].kind {
            StmtKind::Return(Some(e)) => assert!(matches!(e.kind, ExprKind::Cast(..))),
            _ => panic!(),
        }
        let tu2 = parse_ok("int g(int x) { return x; } int f(int x) { return (g)(x); }");
        let f2 = tu2
            .decls
            .iter()
            .filter_map(|d| match d {
                ExtDecl::Function(f) => Some(f),
                _ => None,
            })
            .nth(1)
            .unwrap();
        match &f2.body[0].kind {
            StmtKind::Return(Some(e)) => assert!(matches!(e.kind, ExprKind::Call(..))),
            _ => panic!(),
        }
    }

    #[test]
    fn parses_control_flow() {
        let tu = parse_ok(
            "int f(int n) {\n\
               int s = 0;\n\
               for (int i = 0; i < n; i++) { s += i; }\n\
               while (s > 100) s--;\n\
               do { s++; } while (s < 10);\n\
               switch (s) { case 1: s = 2; break; default: s = 3; }\n\
               if (s) return s; else return 0;\n\
             }",
        );
        let f = first_fn(&tu);
        assert_eq!(f.body.len(), 6);
    }

    #[test]
    fn parses_goto_and_labels() {
        let tu = parse_ok("int f(void) { goto out; out: return 1; }");
        let f = first_fn(&tu);
        assert!(matches!(f.body[0].kind, StmtKind::Goto(_)));
        assert!(matches!(f.body[1].kind, StmtKind::Label(..)));
    }

    #[test]
    fn parses_expressions_with_precedence() {
        let tu = parse_ok("int x = 1 + 2 * 3;");
        match &tu.decls[0] {
            ExtDecl::Decl(d) => match &d.inits[0].init {
                Some(Initializer::Expr(e)) => match &e.kind {
                    ExprKind::Binary(BinOp::Add, _, rhs) => {
                        assert!(matches!(rhs.kind, ExprKind::Binary(BinOp::Mul, ..)));
                    }
                    other => panic!("bad tree: {other:?}"),
                },
                _ => panic!(),
            },
            _ => panic!(),
        }
    }

    #[test]
    fn parses_conditional_and_assignment_chains() {
        parse_ok("int f(int a, int b) { int c; c = a = b ? a : b; return c; }");
    }

    #[test]
    fn parses_casts_and_sizeof() {
        let tu = parse_ok(
            "struct S { int a; };\n\
             int f(void) { struct S *p; int n; n = sizeof(struct S) + sizeof n; p = (struct S *)0; return n; }",
        );
        let f = first_fn(&tu);
        assert!(!f.body.is_empty());
    }

    #[test]
    fn parses_ccured_pointer_annotations() {
        let tu = parse_ok("int * __SAFE p; int * __SEQ q; int * __WILD w; int * __RTTI r;");
        let kind_of = |d: &ExtDecl| match d {
            ExtDecl::Decl(decl) => match &decl.inits[0].declarator.derived[0] {
                Derived::Pointer(q) => q.kind,
                _ => panic!(),
            },
            _ => panic!(),
        };
        assert_eq!(kind_of(&tu.decls[0]), Some(PtrKindAnnot::Safe));
        assert_eq!(kind_of(&tu.decls[1]), Some(PtrKindAnnot::Seq));
        assert_eq!(kind_of(&tu.decls[2]), Some(PtrKindAnnot::Wild));
        assert_eq!(kind_of(&tu.decls[3]), Some(PtrKindAnnot::Rtti));
    }

    #[test]
    fn parses_split_annotations() {
        let tu = parse_ok("struct H { char *name; }; struct H __SPLIT * __SAFE h1;");
        match &tu.decls[1] {
            ExtDecl::Decl(d) => {
                assert_eq!(d.specs.split, Some(true));
                match &d.inits[0].declarator.derived[0] {
                    Derived::Pointer(q) => assert_eq!(q.kind, Some(PtrKindAnnot::Safe)),
                    _ => panic!(),
                }
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parses_trusted_cast() {
        let tu = parse_ok("int f(char *buf) { int *p; p = (int * __TRUSTED)buf; return *p; }");
        let f = first_fn(&tu);
        match &f.body[1].kind {
            StmtKind::Expr(Some(e)) => match &e.kind {
                ExprKind::Assign(None, _, rhs) => match &rhs.kind {
                    ExprKind::Cast(tn, _) => assert!(tn.trusted),
                    other => panic!("expected cast, got {other:?}"),
                },
                other => panic!("expected assign, got {other:?}"),
            },
            _ => panic!(),
        }
    }

    #[test]
    fn parses_pragma_directives() {
        let tu = parse_ok("#pragma ccuredWrapperOf(\"strchr_wrapper\", \"strchr\")\nint x;");
        match &tu.decls[0] {
            ExtDecl::Pragma(p) => assert!(p.raw.contains("strchr_wrapper")),
            _ => panic!(),
        }
    }

    #[test]
    fn parses_varargs_prototype() {
        let tu = parse_ok("extern int printf(char *fmt, ...);");
        match &tu.decls[0] {
            ExtDecl::Decl(d) => match &d.inits[0].declarator.derived[0] {
                Derived::Function(params, varargs) => {
                    assert_eq!(params.len(), 1);
                    assert!(varargs);
                }
                _ => panic!(),
            },
            _ => panic!(),
        }
    }

    #[test]
    fn parses_enum() {
        let tu = parse_ok("enum Color { RED, GREEN = 5, BLUE }; enum Color c = GREEN;");
        match &tu.decls[0] {
            ExtDecl::Decl(d) => match &d.specs.type_spec {
                TypeSpec::Enum(e) => assert_eq!(e.items.as_ref().unwrap().len(), 3),
                _ => panic!(),
            },
            _ => panic!(),
        }
    }

    #[test]
    fn parses_union() {
        let tu = parse_ok("union U { int i; char c[4]; } u;");
        match &tu.decls[0] {
            ExtDecl::Decl(d) => match &d.specs.type_spec {
                TypeSpec::Comp(c) => assert!(c.is_union),
                _ => panic!(),
            },
            _ => panic!(),
        }
    }

    #[test]
    fn parses_initializer_lists() {
        parse_ok("int a[3] = {1, 2, 3}; struct P { int x; int y; } p = { 4, 5 };");
    }

    #[test]
    fn parses_string_and_char_literals_in_exprs() {
        parse_ok("char *msg = \"hello\"; char nl = '\\n';");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_translation_unit("int x = ;").is_err());
        assert!(parse_translation_unit("int f( {").is_err());
        assert!(parse_translation_unit("return 0;").is_err());
    }

    #[test]
    fn rejects_unterminated_function() {
        assert!(parse_translation_unit("int f(void) { return 0;").is_err());
    }

    #[test]
    fn block_scoped_typedef_shadowing() {
        // Inside f, `T` is redeclared as a variable; `T * x;` must then parse
        // as multiplication, which as a statement is still valid syntax.
        parse_ok(
            "typedef int T;\n\
             int f(void) { int T = 1; int x = 2; T * x; return T; }\n\
             T g(void) { return 0; }",
        );
    }

    #[test]
    fn parses_abstract_function_pointer_param() {
        parse_ok("void qsort_like(void *base, int n, int (*cmp)(void *, void *));");
    }

    #[test]
    fn parses_nested_calls_and_members() {
        parse_ok(
            "struct V { int (*f)(int); };\n\
             int apply(struct V *v, int x) { return v->f(v->f(x)); }",
        );
    }

    #[test]
    fn parses_comma_and_postfix_ops() {
        parse_ok("int f(int a) { int b = (a++, --a, a--); return b; }");
    }

    #[test]
    fn parses_address_of_and_deref() {
        parse_ok("int f(void) { int x = 5; int *p = &x; *p = 7; return *p; }");
    }

    /// The grammar cycles that `ccured-integration`'s nesting shapes do not
    /// reach, each nested 100 000 deep. Parsed on an 8 MiB thread: an
    /// unoptimized build needs several MiB to reach the limit.
    #[test]
    fn every_recursive_construct_counts_toward_the_nesting_limit() {
        let n = 100_000;
        let nest = move |open: &str, core: &str, close: &str| {
            format!("{}{core}{}", open.repeat(n), close.repeat(n))
        };
        let shapes = [
            ("declarators", format!("int {};", nest("(", "x", ")"))),
            ("parameter lists", nest("int f(", "int", ")") + ";"),
            (
                "function pointer parameters",
                format!("int f({});", nest("int (*g)(", "int", ")")),
            ),
            ("struct bodies", nest("struct { ", "int x;", " } f;")),
            (
                "initializer lists",
                format!("int a = {};", nest("{", "1", "}")),
            ),
            ("casts", format!("int x = {};", nest("(int)", "0", ""))),
            ("sizeof", format!("int x = {};", nest("sizeof ", "0", ""))),
            (
                "conditionals",
                format!("int x = {};", nest("1 ? 1 : ", "0", "")),
            ),
            ("calls", format!("int x = {};", nest("f(", "1", ")"))),
            (
                "prefix operators",
                format!("int x = {};", nest("!", "1", "")),
            ),
        ];
        std::thread::Builder::new()
            .stack_size(8 << 20)
            .spawn(move || {
                for (what, src) in shapes {
                    let err = parse_translation_unit(&src).expect_err(what);
                    assert!(err.msg.contains("nesting too deep"), "{what}: {}", err.msg);
                }
            })
            .expect("spawn")
            .join()
            .expect("nesting check panicked");
    }
}
