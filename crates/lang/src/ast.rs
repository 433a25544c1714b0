//! Abstract syntax of the core imperative language (paper Fig. 5, plus `while` loops,
//! boolean/arithmetic expressions and non-deterministic values, which the paper's
//! benchmarks rely on and which are desugared / normalised before verification).

use crate::spec::Spec;
use crate::symbol::Symbol;

/// Types of the core language.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Type {
    /// Mathematical (arbitrary-precision) integers, as assumed by the paper.
    Int,
    /// Booleans.
    Bool,
    /// No value (method return type only).
    Void,
    /// A declared data (record) type, e.g. `node`.
    Data(Symbol),
}

impl Type {
    /// Returns `true` for heap-allocated (data) types.
    pub fn is_data(&self) -> bool {
        matches!(self, Type::Data(_))
    }
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Boolean negation.
    Not,
}

/// Binary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication (only by a constant stays within the Presburger fragment).
    Mul,
    /// Equality.
    Eq,
    /// Disequality.
    Ne,
    /// Strictly less.
    Lt,
    /// Less or equal.
    Le,
    /// Strictly greater.
    Gt,
    /// Greater or equal.
    Ge,
    /// Boolean conjunction.
    And,
    /// Boolean disjunction.
    Or,
}

impl BinOp {
    /// Returns `true` for boolean connectives.
    pub fn is_logical(&self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }

    /// Returns `true` for arithmetic operators.
    pub fn is_arithmetic(&self) -> bool {
        matches!(self, BinOp::Add | BinOp::Sub | BinOp::Mul)
    }
}

/// Expressions of the surface language.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Int(i128),
    /// Boolean literal.
    Bool(bool),
    /// The null reference.
    Null,
    /// Variable read (also used for the special result variable `res` in specs).
    Var(Symbol),
    /// Field read `v.f`.
    Field(Symbol, Symbol),
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Method call `mn(e₁, …, eₙ)`.
    Call(Symbol, Vec<Expr>),
    /// Allocation `new c(e₁, …, eₙ)`.
    New(Symbol, Vec<Expr>),
    /// A non-deterministic integer (SV-COMP's `__VERIFIER_nondet_int`).
    Nondet,
}

impl Expr {
    /// Variable expression helper.
    pub fn var(name: impl Into<Symbol>) -> Expr {
        Expr::Var(name.into())
    }

    /// Integer literal helper.
    pub fn int(value: i128) -> Expr {
        Expr::Int(value)
    }

    /// Binary expression helper.
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary(op, Box::new(lhs), Box::new(rhs))
    }

    /// Call helper.
    pub fn call(name: impl Into<Symbol>, args: Vec<Expr>) -> Expr {
        Expr::Call(name.into(), args)
    }

    /// Returns `true` if the expression contains a method call.
    pub fn has_call(&self) -> bool {
        match self {
            Expr::Call(..) => true,
            Expr::Unary(_, e) => e.has_call(),
            Expr::Binary(_, a, b) => a.has_call() || b.has_call(),
            Expr::New(_, args) => args.iter().any(Expr::has_call),
            _ => false,
        }
    }

    /// Returns `true` if the expression contains a non-deterministic value.
    pub fn has_nondet(&self) -> bool {
        match self {
            Expr::Nondet => true,
            Expr::Unary(_, e) => e.has_nondet(),
            Expr::Binary(_, a, b) => a.has_nondet() || b.has_nondet(),
            Expr::Call(_, args) | Expr::New(_, args) => args.iter().any(Expr::has_nondet),
            _ => false,
        }
    }

    /// Returns `true` if the expression reads the heap (field access or allocation).
    pub fn has_heap_access(&self) -> bool {
        match self {
            Expr::Field(..) | Expr::New(..) => true,
            Expr::Unary(_, e) => e.has_heap_access(),
            Expr::Binary(_, a, b) => a.has_heap_access() || b.has_heap_access(),
            Expr::Call(_, args) => args.iter().any(Expr::has_heap_access),
            _ => false,
        }
    }

    /// Collects the variables read by the expression into `out`.
    pub fn collect_vars(&self, out: &mut Vec<Symbol>) {
        match self {
            Expr::Var(v) if !out.contains(v) => {
                out.push(*v);
            }
            Expr::Field(v, _) if !out.contains(v) => {
                out.push(*v);
            }
            Expr::Unary(_, e) => e.collect_vars(out),
            Expr::Binary(_, a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            Expr::Call(_, args) | Expr::New(_, args) => {
                for a in args {
                    a.collect_vars(out);
                }
            }
            _ => {}
        }
    }
}

/// Statements of the surface language.
#[derive(Clone, Debug, PartialEq)]
pub enum Stmt {
    /// Local variable declaration with optional initialiser: `t v;` or `t v = e;`.
    VarDecl(Type, Symbol, Option<Expr>),
    /// Assignment `v = e;`.
    Assign(Symbol, Expr),
    /// Field assignment `v.f = e;`.
    FieldAssign(Symbol, Symbol, Expr),
    /// Conditional.
    If(Expr, Block, Block),
    /// While loop (desugared to a tail-recursive method before verification).
    While(Expr, Block),
    /// Return with an optional value.
    Return(Option<Expr>),
    /// An expression evaluated for its effect (typically a call).
    ExprStmt(Expr),
    /// `assume(e);` — constrains the current state (used by generated workloads).
    Assume(Expr),
    /// The empty statement.
    Skip,
}

/// A sequence of statements.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Block {
    /// The statements, in order.
    pub stmts: Vec<Stmt>,
}

impl Block {
    /// Creates a block from statements.
    pub fn new(stmts: Vec<Stmt>) -> Self {
        Block { stmts }
    }

    /// The empty block.
    pub fn empty() -> Self {
        Block::default()
    }
}

/// A formal method parameter.
#[derive(Clone, Debug, PartialEq)]
pub struct Param {
    /// Parameter type.
    pub ty: Type,
    /// Parameter name.
    pub name: Symbol,
    /// Pass-by-reference flag (used by the loop desugaring; Fig. 5's `[ref]`).
    pub by_ref: bool,
}

impl Param {
    /// Creates a by-value parameter.
    pub fn new(ty: Type, name: impl Into<Symbol>) -> Self {
        Param {
            ty,
            name: name.into(),
            by_ref: false,
        }
    }

    /// Creates a by-reference parameter.
    pub fn by_ref(ty: Type, name: impl Into<Symbol>) -> Self {
        Param {
            ty,
            name: name.into(),
            by_ref: true,
        }
    }
}

/// A data (record) type declaration, e.g. `data node { node next; }`.
#[derive(Clone, Debug, PartialEq)]
pub struct DataDecl {
    /// Type name.
    pub name: Symbol,
    /// Field declarations in order.
    pub fields: Vec<(Type, Symbol)>,
}

/// A heap-predicate declaration, e.g. `pred lseg(root, q, n) == ... ;`.
///
/// The body is a disjunction of (heap, pure) branches expressed with the spec syntax;
/// its semantics (unfolding, entailment, size abstraction) live in the `tnt-heap` crate.
#[derive(Clone, Debug, PartialEq)]
pub struct PredDecl {
    /// Predicate name.
    pub name: Symbol,
    /// Formal parameters (the first one is conventionally the root pointer).
    pub params: Vec<Symbol>,
    /// Disjuncts: each is a pair of heap formula and pure condition.
    pub branches: Vec<(crate::spec::HeapFormula, Expr)>,
}

/// A user-supplied heap lemma `lemma LHS == RHS;`, applied left-to-right by the heap
/// entailment when direct matching fails (e.g. folding `lseg(p, x, m) * x ↦ node(p)`
/// into the circular list `cll(p, m + 1)`, which the paper's `append`/`cll` scenario
/// needs).
#[derive(Clone, Debug, PartialEq)]
pub struct LemmaDecl {
    /// Left-hand side: heap and pure parts.
    pub lhs: (crate::spec::HeapFormula, Expr),
    /// Right-hand side: heap and pure parts.
    pub rhs: (crate::spec::HeapFormula, Expr),
}

/// A method declaration.
#[derive(Clone, Debug, PartialEq)]
pub struct MethodDecl {
    /// Return type.
    pub ret: Type,
    /// Method name.
    pub name: Symbol,
    /// Formal parameters.
    pub params: Vec<Param>,
    /// Specification (possibly several `requires/ensures` pairs or a `case` spec).
    pub spec: Option<Spec>,
    /// Body; `None` for primitive/library methods, which must carry a spec.
    pub body: Option<Block>,
}

impl MethodDecl {
    /// Names of all parameters.
    pub fn param_names(&self) -> Vec<Symbol> {
        self.params.iter().map(|p| p.name).collect()
    }
}

/// A whole program: data declarations, heap predicates and methods.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Program {
    /// Data type declarations.
    pub datas: Vec<DataDecl>,
    /// Heap predicate declarations.
    pub preds: Vec<PredDecl>,
    /// Heap lemmas.
    pub lemmas: Vec<LemmaDecl>,
    /// Method declarations.
    pub methods: Vec<MethodDecl>,
}

impl Program {
    /// Looks up a method by name.
    pub fn method(&self, name: &str) -> Option<&MethodDecl> {
        self.methods.iter().find(|m| m.name == name)
    }

    /// Looks up a data declaration by name.
    pub fn data(&self, name: &str) -> Option<&DataDecl> {
        self.datas.iter().find(|d| d.name == name)
    }

    /// Looks up a heap predicate by name.
    pub fn pred(&self, name: &str) -> Option<&PredDecl> {
        self.preds.iter().find(|p| p.name == name)
    }

    /// Names of the methods called (directly) by the given method body.
    pub fn callees(&self, method: &MethodDecl) -> Vec<Symbol> {
        fn stmt_calls(stmt: &Stmt, out: &mut Vec<Symbol>) {
            fn expr_calls(expr: &Expr, out: &mut Vec<Symbol>) {
                match expr {
                    Expr::Call(name, args) => {
                        if !out.contains(name) {
                            out.push(*name);
                        }
                        for a in args {
                            expr_calls(a, out);
                        }
                    }
                    Expr::Unary(_, e) => expr_calls(e, out),
                    Expr::Binary(_, a, b) => {
                        expr_calls(a, out);
                        expr_calls(b, out);
                    }
                    Expr::New(_, args) => {
                        for a in args {
                            expr_calls(a, out);
                        }
                    }
                    _ => {}
                }
            }
            match stmt {
                Stmt::VarDecl(_, _, Some(e))
                | Stmt::Assign(_, e)
                | Stmt::FieldAssign(_, _, e)
                | Stmt::ExprStmt(e)
                | Stmt::Assume(e)
                | Stmt::Return(Some(e)) => expr_calls(e, out),
                Stmt::If(c, t, f) => {
                    expr_calls(c, out);
                    for s in &t.stmts {
                        stmt_calls(s, out);
                    }
                    for s in &f.stmts {
                        stmt_calls(s, out);
                    }
                }
                Stmt::While(c, body) => {
                    expr_calls(c, out);
                    for s in &body.stmts {
                        stmt_calls(s, out);
                    }
                }
                _ => {}
            }
        }
        let mut out = Vec::new();
        if let Some(body) = &method.body {
            for s in &body.stmts {
                stmt_calls(s, &mut out);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_helpers() {
        let e = Expr::bin(BinOp::Add, Expr::var("x"), Expr::int(1));
        assert!(!e.has_call());
        assert!(!e.has_nondet());
        let call = Expr::call("f", vec![e.clone()]);
        assert!(call.has_call());
        let nd = Expr::bin(BinOp::Add, Expr::Nondet, Expr::int(0));
        assert!(nd.has_nondet());
        let heap = Expr::Field("p".into(), "next".into());
        assert!(heap.has_heap_access());
    }

    #[test]
    fn collect_vars_dedups() {
        let e = Expr::bin(
            BinOp::Add,
            Expr::var("x"),
            Expr::bin(BinOp::Sub, Expr::var("x"), Expr::var("y")),
        );
        let mut vars = Vec::new();
        e.collect_vars(&mut vars);
        assert_eq!(vars, vec!["x".to_string(), "y".to_string()]);
    }

    #[test]
    fn program_lookup_and_callees() {
        let method = MethodDecl {
            ret: Type::Void,
            name: "foo".into(),
            params: vec![Param::new(Type::Int, "x"), Param::new(Type::Int, "y")],
            spec: None,
            body: Some(Block::new(vec![Stmt::If(
                Expr::bin(BinOp::Lt, Expr::var("x"), Expr::int(0)),
                Block::new(vec![Stmt::Return(None)]),
                Block::new(vec![Stmt::ExprStmt(Expr::call(
                    "foo",
                    vec![
                        Expr::bin(BinOp::Add, Expr::var("x"), Expr::var("y")),
                        Expr::var("y"),
                    ],
                ))]),
            )])),
        };
        let program = Program {
            datas: vec![],
            preds: vec![],
            lemmas: vec![],
            methods: vec![method],
        };
        assert!(program.method("foo").is_some());
        assert!(program.method("bar").is_none());
        let callees = program.callees(program.method("foo").unwrap());
        assert_eq!(callees, vec!["foo".to_string()]);
    }

    #[test]
    fn binop_classification() {
        assert!(BinOp::And.is_logical());
        assert!(BinOp::Add.is_arithmetic());
    }
}
