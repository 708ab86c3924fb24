//! Terms, sorts and the term context (hash-consed arena).

use std::borrow::Cow;
use std::fmt;
use std::hash::Hasher;

use crate::fx::FxHasher;

/// A sort (type) of a term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sort {
    /// The booleans.
    Bool,
    /// The integers.
    Int,
    /// An uninterpreted sort created with
    /// [`Context::uninterpreted_sort`].
    Uninterpreted(u32),
}

/// Identifier of a declared variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(pub u32);

/// Identifier of a declared uninterpreted function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FuncId(pub u32);

/// Identifier of a term in a [`Context`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub u32);

impl TermId {
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// The structure of a term.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TermData {
    /// A boolean constant.
    BoolConst(bool),
    /// An integer constant.
    IntConst(i64),
    /// A declared variable.
    Var(VarId),
    /// Application of an uninterpreted function.
    App(FuncId, Vec<TermId>),
    /// Equality (operands of equal sort).
    Eq(TermId, TermId),
    /// Less-or-equal over integers.
    Le(TermId, TermId),
    /// Strictly-less over integers.
    Lt(TermId, TermId),
    /// Pairwise distinctness.
    Distinct(Vec<TermId>),
    /// Negation.
    Not(TermId),
    /// N-ary conjunction.
    And(Vec<TermId>),
    /// N-ary disjunction.
    Or(Vec<TermId>),
    /// Implication.
    Implies(TermId, TermId),
    /// Bi-implication.
    Iff(TermId, TermId),
}

/// The term context: declares sorts, variables and functions, and builds
/// hash-consed terms.
#[derive(Debug, Default)]
pub struct Context {
    terms: Vec<TermData>,
    sorts: Vec<Sort>,
    cons: ConsTable,
    /// Reusable child buffer of `and`/`or`: a lookup that finds an
    /// existing node allocates nothing.
    scratch: Vec<TermId>,
    var_names: Vec<(Cow<'static, str>, Sort)>,
    func_sigs: Vec<(String, Vec<Sort>, Sort)>,
    sort_names: Vec<String>,
}

/// The hash-cons index over `Context::terms`: open addressing with
/// linear probing, Fx-hashed. A slot holds the upper half of a term's
/// hash and `TermId + 1` (0 marks an empty slot), so each `TermData` is
/// stored once, in the arena, and compared there on a hash match.
#[derive(Debug, Default)]
struct ConsTable {
    slots: Vec<(u32, u32)>,
    len: usize,
}

impl ConsTable {
    /// The term with this hash whose data satisfies `same`, or the empty
    /// slot where it goes. Grows first, so the slot stays valid for one
    /// [`ConsTable::fill`].
    fn find(&mut self, hash: u32, same: impl Fn(TermId) -> bool) -> Result<TermId, usize> {
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            match self.slots[i] {
                (_, 0) => return Err(i),
                (h, id) if h == hash && same(TermId(id - 1)) => return Ok(TermId(id - 1)),
                _ => i = (i + 1) & mask,
            }
        }
    }

    fn fill(&mut self, slot: usize, hash: u32, id: TermId) {
        self.slots[slot] = (hash, id.0 + 1);
        self.len += 1;
    }

    fn grow(&mut self) {
        let size = (2 * self.slots.len()).max(64);
        let old = std::mem::replace(&mut self.slots, vec![(0, 0); size]);
        let mask = size - 1;
        for (h, id) in old.into_iter().filter(|&(_, id)| id != 0) {
            let mut i = h as usize & mask;
            while self.slots[i].1 != 0 {
                i = (i + 1) & mask;
            }
            self.slots[i] = (h, id);
        }
    }
}

/// Kind tags of the hash-cons key, one per `TermData` variant.
const TAG_BOOL: u32 = 0;
const TAG_INT: u32 = 1;
const TAG_VAR: u32 = 2;
const TAG_APP: u32 = 3;
const TAG_EQ: u32 = 4;
const TAG_LE: u32 = 5;
const TAG_LT: u32 = 6;
const TAG_DISTINCT: u32 = 7;
const TAG_NOT: u32 = 8;
const TAG_AND: u32 = 9;
const TAG_OR: u32 = 10;
const TAG_IMPLIES: u32 = 11;
const TAG_IFF: u32 = 12;

/// The hash-cons key of a term — kind tag, scalar payload, children —
/// Fx-hashed. The table keeps the upper 32 bits, which the final
/// multiply mixes best.
fn cons_hash(tag: u32, scalar: u64, children: &[TermId]) -> u32 {
    let mut h = FxHasher::default();
    h.write_u32(tag);
    h.write_u64(scalar);
    for c in children {
        h.write_u32(c.0);
    }
    (h.finish() >> 32) as u32
}

fn term_hash(data: &TermData) -> u32 {
    match data {
        TermData::BoolConst(b) => cons_hash(TAG_BOOL, *b as u64, &[]),
        TermData::IntConst(v) => cons_hash(TAG_INT, *v as u64, &[]),
        TermData::Var(v) => cons_hash(TAG_VAR, v.0 as u64, &[]),
        TermData::App(f, xs) => cons_hash(TAG_APP, f.0 as u64, xs),
        TermData::Eq(a, b) => cons_hash(TAG_EQ, 0, &[*a, *b]),
        TermData::Le(a, b) => cons_hash(TAG_LE, 0, &[*a, *b]),
        TermData::Lt(a, b) => cons_hash(TAG_LT, 0, &[*a, *b]),
        TermData::Distinct(xs) => cons_hash(TAG_DISTINCT, 0, xs),
        TermData::Not(a) => cons_hash(TAG_NOT, 0, &[*a]),
        TermData::And(xs) => cons_hash(TAG_AND, 0, xs),
        TermData::Or(xs) => cons_hash(TAG_OR, 0, xs),
        TermData::Implies(a, b) => cons_hash(TAG_IMPLIES, 0, &[*a, *b]),
        TermData::Iff(a, b) => cons_hash(TAG_IFF, 0, &[*a, *b]),
    }
}

impl Context {
    /// Creates an empty context.
    pub fn new() -> Self {
        Context::default()
    }

    /// Declares a fresh uninterpreted sort.
    pub fn uninterpreted_sort(&mut self, name: impl Into<String>) -> Sort {
        let id = self.sort_names.len() as u32;
        self.sort_names.push(name.into());
        Sort::Uninterpreted(id)
    }

    /// Declares a fresh variable of the given sort and returns its term.
    /// The name only serves [`Context::display`]; a `&'static str` name
    /// costs no allocation.
    pub fn var(&mut self, name: impl Into<Cow<'static, str>>, sort: Sort) -> TermId {
        let id = VarId(self.var_names.len() as u32);
        self.var_names.push((name.into(), sort));
        self.intern(TermData::Var(id), sort)
    }

    /// Declares an uninterpreted function.
    ///
    /// # Panics
    ///
    /// Panics if the result sort is `Bool` (boolean functions are not
    /// supported; use boolean variables and `iff`).
    pub fn func(&mut self, name: impl Into<String>, args: Vec<Sort>, ret: Sort) -> FuncId {
        assert!(ret != Sort::Bool, "boolean-valued uninterpreted functions are not supported");
        let id = FuncId(self.func_sigs.len() as u32);
        self.func_sigs.push((name.into(), args, ret));
        id
    }

    /// The sort of a term.
    pub fn sort(&self, t: TermId) -> Sort {
        self.sorts[t.index()]
    }

    /// The structure of a term.
    pub fn data(&self, t: TermId) -> &TermData {
        &self.terms[t.index()]
    }

    /// Name of a declared variable.
    pub fn var_name(&self, v: VarId) -> &str {
        &self.var_names[v.0 as usize].0
    }

    fn intern(&mut self, data: TermData, sort: Sort) -> TermId {
        let hash = term_hash(&data);
        let terms = &self.terms;
        match self.cons.find(hash, |id| terms[id.index()] == data) {
            Ok(id) => id,
            Err(slot) => self.push(slot, hash, data, sort),
        }
    }

    fn push(&mut self, slot: usize, hash: u32, data: TermData, sort: Sort) -> TermId {
        let id = TermId(self.terms.len() as u32);
        self.cons.fill(slot, hash, id);
        self.terms.push(data);
        self.sorts.push(sort);
        id
    }

    /// Interns the `And`/`Or` node over `self.scratch` (sorted, deduplicated,
    /// at least two children), allocating its child list only when the
    /// node is new.
    fn intern_nary(&mut self, tag: u32) -> TermId {
        let hash = cons_hash(tag, 0, &self.scratch);
        let (terms, xs) = (&self.terms, &self.scratch);
        let found = self.cons.find(hash, |id| match &terms[id.index()] {
            TermData::And(ys) => tag == TAG_AND && ys == xs,
            TermData::Or(ys) => tag == TAG_OR && ys == xs,
            _ => false,
        });
        match found {
            Ok(id) => id,
            Err(slot) => {
                let xs = self.scratch.clone();
                let data = if tag == TAG_AND { TermData::And(xs) } else { TermData::Or(xs) };
                self.push(slot, hash, data, Sort::Bool)
            }
        }
    }

    /// Boolean constant.
    pub fn bool_const(&mut self, b: bool) -> TermId {
        self.intern(TermData::BoolConst(b), Sort::Bool)
    }

    /// The constant `true`.
    pub fn tru(&mut self) -> TermId {
        self.bool_const(true)
    }

    /// The constant `false`.
    pub fn fls(&mut self) -> TermId {
        self.bool_const(false)
    }

    /// Integer constant.
    pub fn int(&mut self, v: i64) -> TermId {
        self.intern(TermData::IntConst(v), Sort::Int)
    }

    /// Function application.
    ///
    /// # Panics
    ///
    /// Panics on arity or sort mismatch.
    pub fn app(&mut self, f: FuncId, args: Vec<TermId>) -> TermId {
        let (_, arg_sorts, ret) = &self.func_sigs[f.0 as usize];
        assert_eq!(args.len(), arg_sorts.len(), "arity mismatch");
        for (a, s) in args.iter().zip(arg_sorts) {
            assert_eq!(self.sorts[a.index()], *s, "argument sort mismatch");
        }
        let ret = *ret;
        self.intern(TermData::App(f, args), ret)
    }

    /// Equality.
    ///
    /// # Panics
    ///
    /// Panics if the operands have different sorts.
    pub fn eq(&mut self, a: TermId, b: TermId) -> TermId {
        assert_eq!(self.sort(a), self.sort(b), "equality between different sorts");
        if a == b {
            return self.tru();
        }
        let (a, b) = if a < b { (a, b) } else { (b, a) };
        self.intern(TermData::Eq(a, b), Sort::Bool)
    }

    /// `a ≤ b` over integers.
    ///
    /// # Panics
    ///
    /// Panics unless both operands are integers.
    pub fn le(&mut self, a: TermId, b: TermId) -> TermId {
        assert_eq!(self.sort(a), Sort::Int);
        assert_eq!(self.sort(b), Sort::Int);
        self.intern(TermData::Le(a, b), Sort::Bool)
    }

    /// `a < b` over integers.
    ///
    /// # Panics
    ///
    /// Panics unless both operands are integers.
    pub fn lt(&mut self, a: TermId, b: TermId) -> TermId {
        assert_eq!(self.sort(a), Sort::Int);
        assert_eq!(self.sort(b), Sort::Int);
        self.intern(TermData::Lt(a, b), Sort::Bool)
    }

    /// Pairwise distinctness.
    ///
    /// # Panics
    ///
    /// Panics if operand sorts differ.
    pub fn distinct(&mut self, xs: Vec<TermId>) -> TermId {
        if xs.len() < 2 {
            return self.tru();
        }
        let s = self.sort(xs[0]);
        for &x in &xs {
            assert_eq!(self.sort(x), s, "distinct between different sorts");
        }
        let mut xs = xs;
        xs.sort();
        xs.dedup();
        self.intern(TermData::Distinct(xs), Sort::Bool)
    }

    /// Negation.
    pub fn not(&mut self, a: TermId) -> TermId {
        match *self.data(a) {
            TermData::BoolConst(b) => self.bool_const(!b),
            TermData::Not(inner) => inner,
            _ => self.intern(TermData::Not(a), Sort::Bool),
        }
    }

    /// Conjunction.
    pub fn and(&mut self, xs: impl IntoIterator<Item = TermId>) -> TermId {
        self.nary(TAG_AND, xs)
    }

    /// Disjunction.
    pub fn or(&mut self, xs: impl IntoIterator<Item = TermId>) -> TermId {
        self.nary(TAG_OR, xs)
    }

    /// `And` (`tag == TAG_AND`) or `Or` of `xs`: flattens nested nodes of
    /// the same kind, drops the neutral constant, short-circuits on the
    /// absorbing one, and sorts and deduplicates the children.
    fn nary(&mut self, tag: u32, xs: impl IntoIterator<Item = TermId>) -> TermId {
        let neutral = tag == TAG_AND;
        let mut out = std::mem::take(&mut self.scratch);
        out.clear();
        for x in xs {
            match &self.terms[x.index()] {
                TermData::BoolConst(b) if *b == neutral => {}
                TermData::BoolConst(_) => {
                    self.scratch = out;
                    return self.bool_const(!neutral);
                }
                TermData::And(inner) if neutral => out.extend_from_slice(inner),
                TermData::Or(inner) if !neutral => out.extend_from_slice(inner),
                _ => out.push(x),
            }
        }
        out.sort_unstable();
        out.dedup();
        self.scratch = out;
        match self.scratch.len() {
            0 => self.bool_const(neutral),
            1 => self.scratch[0],
            _ => self.intern_nary(tag),
        }
    }

    /// Implication.
    pub fn implies(&mut self, a: TermId, b: TermId) -> TermId {
        self.intern(TermData::Implies(a, b), Sort::Bool)
    }

    /// Bi-implication.
    pub fn iff(&mut self, a: TermId, b: TermId) -> TermId {
        if a == b {
            return self.tru();
        }
        let (a, b) = if a < b { (a, b) } else { (b, a) };
        self.intern(TermData::Iff(a, b), Sort::Bool)
    }

    /// Number of interned terms.
    pub fn term_count(&self) -> usize {
        self.terms.len()
    }

    /// Renders a term for diagnostics.
    pub fn display(&self, t: TermId) -> String {
        match self.data(t) {
            TermData::BoolConst(b) => b.to_string(),
            TermData::IntConst(v) => v.to_string(),
            TermData::Var(v) => self.var_name(*v).to_owned(),
            TermData::App(f, args) => {
                let name = &self.func_sigs[f.0 as usize].0;
                let args: Vec<_> = args.iter().map(|&a| self.display(a)).collect();
                format!("{name}({})", args.join(","))
            }
            TermData::Eq(a, b) => format!("({} = {})", self.display(*a), self.display(*b)),
            TermData::Le(a, b) => format!("({} ≤ {})", self.display(*a), self.display(*b)),
            TermData::Lt(a, b) => format!("({} < {})", self.display(*a), self.display(*b)),
            TermData::Distinct(xs) => {
                let xs: Vec<_> = xs.iter().map(|&a| self.display(a)).collect();
                format!("distinct({})", xs.join(","))
            }
            TermData::Not(a) => format!("¬{}", self.display(*a)),
            TermData::And(xs) => {
                let xs: Vec<_> = xs.iter().map(|&a| self.display(a)).collect();
                format!("({})", xs.join(" ∧ "))
            }
            TermData::Or(xs) => {
                let xs: Vec<_> = xs.iter().map(|&a| self.display(a)).collect();
                format!("({})", xs.join(" ∨ "))
            }
            TermData::Implies(a, b) => {
                format!("({} → {})", self.display(*a), self.display(*b))
            }
            TermData::Iff(a, b) => format!("({} ↔ {})", self.display(*a), self.display(*b)),
        }
    }
}

impl fmt::Display for Sort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sort::Bool => write!(f, "Bool"),
            Sort::Int => write!(f, "Int"),
            Sort::Uninterpreted(i) => write!(f, "U{i}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_consing_dedups() {
        let mut ctx = Context::new();
        let s = ctx.uninterpreted_sort("k");
        let x = ctx.var("x", s);
        let y = ctx.var("y", s);
        assert_eq!(ctx.eq(x, y), ctx.eq(y, x), "equality is order-normalized");
        let n = ctx.term_count();
        let _ = ctx.eq(x, y);
        assert_eq!(ctx.term_count(), n);
    }

    #[test]
    fn smart_constructors() {
        let mut ctx = Context::new();
        let t = ctx.tru();
        let f = ctx.fls();
        assert_eq!(ctx.and([t, t]), t);
        assert_eq!(ctx.and([t, f]), f);
        assert_eq!(ctx.or([f, f]), f);
        let s = ctx.uninterpreted_sort("k");
        let x = ctx.var("x", s);
        let e = ctx.eq(x, x);
        assert_eq!(e, t, "reflexive equality is true");
        let ne = ctx.not(e);
        assert_eq!(ne, f);
        let a = ctx.var("a", Sort::Bool);
        let na = ctx.not(a);
        assert_eq!(ctx.not(na), a, "double negation cancels");
    }

    #[test]
    #[should_panic(expected = "different sorts")]
    fn eq_sort_checked() {
        let mut ctx = Context::new();
        let s = ctx.uninterpreted_sort("k");
        let x = ctx.var("x", s);
        let i = ctx.int(1);
        let _ = ctx.eq(x, i);
    }

    #[test]
    fn function_application_sorts() {
        let mut ctx = Context::new();
        let s = ctx.uninterpreted_sort("k");
        let f = ctx.func("f", vec![s], s);
        let x = ctx.var("x", s);
        let fx = ctx.app(f, vec![x]);
        assert_eq!(ctx.sort(fx), s);
        assert_eq!(ctx.display(fx), "f(x)");
    }

    #[test]
    fn distinct_normalizes() {
        let mut ctx = Context::new();
        let s = ctx.uninterpreted_sort("k");
        let x = ctx.var("x", s);
        let y = ctx.var("y", s);
        let d1 = ctx.distinct(vec![x, y]);
        let d2 = ctx.distinct(vec![y, x]);
        assert_eq!(d1, d2);
        let single = ctx.distinct(vec![x]);
        let t = ctx.tru();
        assert_eq!(single, t);
    }
}
