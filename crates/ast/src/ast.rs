//! Abstract syntax tree for the ccured-rs C subset.
//!
//! The tree mirrors C89 syntax closely; semantic interpretation (type
//! resolution, implicit conversions, lvalue rules) happens during lowering in
//! `ccured-cil`. Every node carries a [`Span`].

use crate::lex::IntSuffix;
use crate::span::Span;

/// A parsed source file: a sequence of external declarations.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TranslationUnit {
    /// Top-level declarations, in source order.
    pub decls: Vec<ExtDecl>,
}

/// One top-level item.
#[derive(Debug, Clone, PartialEq)]
pub enum ExtDecl {
    /// A function definition with a body.
    Function(FunctionDef),
    /// A declaration (variables, typedefs, struct/union/enum definitions,
    /// function prototypes).
    Decl(Declaration),
    /// A `#pragma` directive (interpreted later by the CCured pipeline).
    Pragma(PragmaDirective),
}

/// A raw `#pragma` directive.
#[derive(Debug, Clone, PartialEq)]
pub struct PragmaDirective {
    /// Everything after `#pragma`, trimmed.
    pub raw: String,
    /// Source location.
    pub span: Span,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionDef {
    /// Return-type specifiers and storage class.
    pub specs: DeclSpecs,
    /// The declarator naming the function and its parameters.
    pub declarator: Declarator,
    /// The body block's statements.
    pub body: Vec<Stmt>,
    /// Source location of the whole definition.
    pub span: Span,
}

/// A declaration: specifiers plus zero or more init-declarators.
#[derive(Debug, Clone, PartialEq)]
pub struct Declaration {
    /// Base type and storage class.
    pub specs: DeclSpecs,
    /// The declared names with optional initializers. Empty for bare
    /// struct/union/enum definitions.
    pub inits: Vec<InitDeclarator>,
    /// Source location.
    pub span: Span,
}

/// Storage-class specifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Storage {
    /// `typedef`
    Typedef,
    /// `extern`
    Extern,
    /// `static`
    Static,
}

/// Declaration specifiers: one base type plus storage and CCured qualifiers.
#[derive(Debug, Clone, PartialEq)]
pub struct DeclSpecs {
    /// Optional storage class.
    pub storage: Option<Storage>,
    /// The base type.
    pub type_spec: TypeSpec,
    /// `__SPLIT` / `__NOSPLIT` annotation on the base type, if any.
    pub split: Option<bool>,
    /// `const` was present (recorded, not enforced).
    pub is_const: bool,
    /// Source location.
    pub span: Span,
}

/// Width of an integer type specifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntSize {
    /// `short`
    Short,
    /// plain `int`
    Int,
    /// `long`
    Long,
    /// `long long`
    LongLong,
}

/// The base type in a declaration.
#[derive(Debug, Clone, PartialEq)]
pub enum TypeSpec {
    /// `void`
    Void,
    /// `char`, optionally explicitly signed/unsigned.
    Char {
        /// `Some(true)` for `signed char`, `Some(false)` for `unsigned char`.
        signed: Option<bool>,
    },
    /// Integer types of every width.
    Int {
        /// Unsigned if false.
        signed: bool,
        /// Width class.
        size: IntSize,
    },
    /// `float`
    Float,
    /// `double`
    Double,
    /// `struct`/`union` reference or definition.
    Comp(CompSpec),
    /// `enum` reference or definition.
    Enum(EnumSpec),
    /// A typedef name.
    Name(String),
}

/// A `struct` or `union` specifier.
#[derive(Debug, Clone, PartialEq)]
pub struct CompSpec {
    /// True for `union`.
    pub is_union: bool,
    /// The tag, if named.
    pub tag: Option<String>,
    /// Field groups when this is a definition, `None` for a bare reference.
    pub fields: Option<Vec<FieldGroup>>,
    /// Source location.
    pub span: Span,
}

/// One field declaration line inside a struct/union (`int a, *b;`).
#[derive(Debug, Clone, PartialEq)]
pub struct FieldGroup {
    /// Base type for the group.
    pub specs: DeclSpecs,
    /// The declarators (bitfields are not supported).
    pub declarators: Vec<Declarator>,
    /// Source location.
    pub span: Span,
}

/// An `enum` specifier.
#[derive(Debug, Clone, PartialEq)]
pub struct EnumSpec {
    /// The tag, if named.
    pub tag: Option<String>,
    /// Enumerators when this is a definition.
    pub items: Option<Vec<Enumerator>>,
    /// Source location.
    pub span: Span,
}

/// A single enumerator, optionally with an explicit value.
#[derive(Debug, Clone, PartialEq)]
pub struct Enumerator {
    /// The enumerator name.
    pub name: String,
    /// The explicit value expression, if given.
    pub value: Option<Expr>,
    /// Source location.
    pub span: Span,
}

/// CCured qualifiers attached to one `*` in a declarator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PtrQuals {
    /// Explicit pointer-kind assertion (`__SAFE` etc.), if any.
    pub kind: Option<PtrKindAnnot>,
    /// `__SPLIT` (`Some(true)`) / `__NOSPLIT` (`Some(false)`) on the pointer.
    pub split: Option<bool>,
    /// `const` after the `*`.
    pub is_const: bool,
}

/// Source-level pointer-kind annotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PtrKindAnnot {
    /// `__SAFE`
    Safe,
    /// `__SEQ`
    Seq,
    /// `__WILD`
    Wild,
    /// `__RTTI`
    Rtti,
}

/// One step of a declarator, listed from the declared name outward.
///
/// For `int *a[10]`, the derived list of `a` is `[Array(10), Pointer]`:
/// `a` is an array of 10 pointers to `int`.
#[derive(Debug, Clone, PartialEq)]
pub enum Derived {
    /// A pointer level with its CCured qualifiers.
    Pointer(PtrQuals),
    /// An array level; `None` for an incomplete `[]`.
    Array(Option<Box<Expr>>),
    /// A function level with parameters and variadic flag.
    Function(Vec<ParamDecl>, bool),
}

/// A declarator: an optional name plus derived parts.
#[derive(Debug, Clone, PartialEq)]
pub struct Declarator {
    /// The declared name; `None` for abstract declarators (casts, params).
    pub name: Option<String>,
    /// Derived parts from the name outward (see [`Derived`]).
    pub derived: Vec<Derived>,
    /// Source location.
    pub span: Span,
}

impl Declarator {
    /// An abstract declarator with no derived parts.
    pub fn bare(span: Span) -> Self {
        Declarator {
            name: None,
            derived: Vec::new(),
            span,
        }
    }

    /// Whether the outermost derived part makes this a function declarator.
    pub fn is_function(&self) -> bool {
        matches!(self.derived.first(), Some(Derived::Function(..)))
    }
}

/// One parameter declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamDecl {
    /// Base type of the parameter.
    pub specs: DeclSpecs,
    /// Parameter declarator (may be abstract).
    pub declarator: Declarator,
    /// Source location.
    pub span: Span,
}

/// A declarator with an optional initializer.
#[derive(Debug, Clone, PartialEq)]
pub struct InitDeclarator {
    /// The declarator.
    pub declarator: Declarator,
    /// The initializer, if present.
    pub init: Option<Initializer>,
}

/// An initializer.
#[derive(Debug, Clone, PartialEq)]
pub enum Initializer {
    /// A single expression.
    Expr(Expr),
    /// A brace-enclosed list (designators are not supported).
    List(Vec<Initializer>, Span),
}

/// A type name as used in casts and `sizeof`.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeName {
    /// Base type.
    pub specs: DeclSpecs,
    /// Abstract declarator.
    pub declarator: Declarator,
    /// `__TRUSTED` appeared in the cast's qualifier position.
    pub trusted: bool,
    /// Source location.
    pub span: Span,
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// Statement payload.
    pub kind: StmtKind,
    /// Source location.
    pub span: Span,
}

/// Statement payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// Expression statement; `None` for the empty statement `;`.
    Expr(Option<Expr>),
    /// A block-local declaration.
    Decl(Declaration),
    /// `{ ... }`
    Block(Vec<Stmt>),
    /// `if (c) t else e`
    If(Expr, Box<Stmt>, Option<Box<Stmt>>),
    /// `while (c) body`
    While(Expr, Box<Stmt>),
    /// `do body while (c);`
    DoWhile(Box<Stmt>, Expr),
    /// `for (init; cond; step) body`; the init clause is boxed to keep
    /// every [`Stmt`] small.
    For(Option<Box<ForInit>>, Option<Expr>, Option<Expr>, Box<Stmt>),
    /// `switch (scrutinee) body`
    Switch(Expr, Box<Stmt>),
    /// `case e: stmt`
    Case(Expr, Box<Stmt>),
    /// `default: stmt`
    Default(Box<Stmt>),
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// `return e;`
    Return(Option<Expr>),
    /// `goto label;`
    Goto(String),
    /// `label: stmt`
    Label(String, Box<Stmt>),
}

/// The first clause of a `for` statement.
#[derive(Debug, Clone, PartialEq)]
pub enum ForInit {
    /// An expression clause.
    Expr(Expr),
    /// A declaration clause (C99-style, accepted for convenience).
    Decl(Declaration),
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// Expression payload.
    pub kind: ExprKind,
    /// Source location.
    pub span: Span,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// `-e`
    Neg,
    /// `+e`
    Plus,
    /// `!e`
    Not,
    /// `~e`
    BitNot,
    /// `*e`
    Deref,
    /// `&e`
    Addr,
    /// `++e`
    PreInc,
    /// `--e`
    PreDec,
}

/// Binary operators (also used as compound-assignment operators).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Shl,
    Shr,
    Lt,
    Gt,
    Le,
    Ge,
    Eq,
    Ne,
    BitAnd,
    BitXor,
    BitOr,
    LogAnd,
    LogOr,
}

impl BinOp {
    /// True for `<`, `>`, `<=`, `>=`, `==`, `!=`.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge | BinOp::Eq | BinOp::Ne
        )
    }

    /// True for `&&` and `||` (short-circuiting).
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::LogAnd | BinOp::LogOr)
    }
}

/// Expression payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// Integer literal.
    IntLit(u64, IntSuffix),
    /// Floating literal.
    FloatLit(f64),
    /// Character literal.
    CharLit(u8),
    /// String literal (without trailing NUL).
    StrLit(Vec<u8>),
    /// Identifier reference.
    Ident(String),
    /// Prefix unary operation.
    Unary(UnOp, Box<Expr>),
    /// Postfix `e++` (true) or `e--` (false).
    PostIncDec(bool, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Assignment; `Some(op)` for compound assignment `l op= r`.
    Assign(Option<BinOp>, Box<Expr>, Box<Expr>),
    /// Conditional `c ? t : e`.
    Cond(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Cast `(T)e`; the type name is boxed to keep every [`Expr`] small.
    Cast(Box<TypeName>, Box<Expr>),
    /// `sizeof e`
    SizeofExpr(Box<Expr>),
    /// `sizeof(T)`
    SizeofType(Box<TypeName>),
    /// Function call.
    Call(Box<Expr>, Vec<Expr>),
    /// Array indexing `a[i]`.
    Index(Box<Expr>, Box<Expr>),
    /// `e.field`
    Member(Box<Expr>, String),
    /// `e->field`
    Arrow(Box<Expr>, String),
    /// `l, r`
    Comma(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Builds an integer-literal expression with a dummy-free span.
    pub fn int(value: u64, span: Span) -> Expr {
        Expr {
            kind: ExprKind::IntLit(value, IntSuffix::default()),
            span,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declarator_is_function_checks_outermost() {
        let span = Span::DUMMY;
        let f = Declarator {
            name: Some("f".into()),
            derived: vec![Derived::Function(vec![], false)],
            span,
        };
        assert!(f.is_function());
        let fp = Declarator {
            name: Some("fp".into()),
            derived: vec![
                Derived::Pointer(PtrQuals::default()),
                Derived::Function(vec![], false),
            ],
            span,
        };
        assert!(
            !fp.is_function(),
            "pointer-to-function is not a function declarator"
        );
    }

    /// Parse time grows with node size: every expression result is moved
    /// up the precedence levels and every block holds its statements
    /// inline.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn node_sizes_stay_within_budget() {
        assert!(
            std::mem::size_of::<Expr>() <= 48,
            "Expr is {} bytes",
            std::mem::size_of::<Expr>()
        );
        assert!(
            std::mem::size_of::<Stmt>() <= 128,
            "Stmt is {} bytes",
            std::mem::size_of::<Stmt>()
        );
    }

    #[test]
    fn binop_classification() {
        assert!(BinOp::Le.is_comparison());
        assert!(!BinOp::Add.is_comparison());
        assert!(BinOp::LogAnd.is_logical());
        assert!(!BinOp::BitAnd.is_logical());
    }
}
