//! Tseitin transformation: boolean term DAG → CNF, with an atom map for
//! the lazy theory layer.
//!
//! The worker type, [`Tseitin`], is a *persistent* term→literal table: it
//! does not borrow the term context, so an incremental session can keep
//! it alive across solve calls and only pay for subterms it has never
//! encoded before. Definition clauses are full equivalences, hence valid
//! independent of which assertions are currently active — they never need
//! to be guarded or retracted.

use crate::sat::{Cnf, Lit, Var};
use crate::term::{Context, Sort, TermData, TermId};

/// Marks a term not encoded yet in [`Tseitin`]'s literal table.
const NO_LIT: Lit = Lit(u32::MAX);

/// Persistent Tseitin state: term → literal table, collected theory
/// atoms, and the reserved "true" literal. Fresh variables and definition
/// clauses are emitted into the `Cnf` passed to [`Tseitin::lit`]; an
/// incremental caller seeds that `Cnf`'s `n_vars` with the solver's
/// current variable count so numbering stays aligned.
///
/// The literal table is dense, indexed by `TermId` (term ids are small
/// and contiguous per context), so a lookup is one bounds-checked load.
#[derive(Debug, Default)]
pub(crate) struct Tseitin {
    lits: Vec<Lit>,
    atoms: Vec<(TermId, Var)>,
    const_true: Option<Lit>,
}

impl Tseitin {
    pub fn new() -> Self {
        Tseitin::default()
    }

    /// The theory atoms encoded so far, in first-encounter order.
    pub fn atoms(&self) -> &[(TermId, Var)] {
        &self.atoms
    }

    /// The literal of an already-encoded term.
    pub fn get(&self, t: TermId) -> Option<Lit> {
        self.lits.get(t.index()).copied().filter(|&l| l != NO_LIT)
    }

    /// Every encoded term with its literal, by term id.
    pub fn encoded(&self) -> impl Iterator<Item = (TermId, Lit)> + '_ {
        self.lits
            .iter()
            .enumerate()
            .filter(|&(_, &l)| l != NO_LIT)
            .map(|(i, &l)| (TermId(i as u32), l))
    }

    fn true_lit(&mut self, cnf: &mut Cnf) -> Lit {
        if let Some(l) = self.const_true {
            return l;
        }
        let v = cnf.fresh();
        cnf.add([v.positive()]);
        self.const_true = Some(v.positive());
        v.positive()
    }

    /// The literal of boolean term `t`, encoding it (and any not-yet-seen
    /// subterms) into `cnf` on first encounter. Children are encoded
    /// first, in order, then the node's own variable and definition
    /// clauses, which read the children's literals back from the table.
    pub fn lit(&mut self, ctx: &Context, t: TermId, cnf: &mut Cnf) -> Lit {
        if let Some(l) = self.get(t) {
            return l;
        }
        let l = match ctx.data(t) {
            TermData::BoolConst(true) => self.true_lit(cnf),
            TermData::BoolConst(false) => self.true_lit(cnf).negate(),
            TermData::Var(_) if ctx.sort(t) == Sort::Bool => cnf.fresh().positive(),
            TermData::Eq(_, _) | TermData::Le(_, _) | TermData::Lt(_, _) => {
                let v = cnf.fresh();
                self.atoms.push((t, v));
                v.positive()
            }
            TermData::Not(a) => self.lit(ctx, *a, cnf).negate(),
            TermData::And(xs) => {
                for &x in xs {
                    self.lit(ctx, x, cnf);
                }
                let v = cnf.fresh().positive();
                for &x in xs {
                    cnf.add([v.negate(), self.lits[x.index()]]);
                }
                cnf.add(xs.iter().map(|&x| self.lits[x.index()].negate()).chain([v]));
                v
            }
            TermData::Or(xs) => {
                for &x in xs {
                    self.lit(ctx, x, cnf);
                }
                let v = cnf.fresh().positive();
                for &x in xs {
                    cnf.add([v, self.lits[x.index()].negate()]);
                }
                cnf.add(xs.iter().map(|&x| self.lits[x.index()]).chain([v.negate()]));
                v
            }
            TermData::Implies(a, b) => {
                let la = self.lit(ctx, *a, cnf);
                let lb = self.lit(ctx, *b, cnf);
                let v = cnf.fresh().positive();
                // v ↔ (¬a ∨ b)
                cnf.add([v.negate(), la.negate(), lb]);
                cnf.add([v, la]);
                cnf.add([v, lb.negate()]);
                v
            }
            TermData::Iff(a, b) => {
                let la = self.lit(ctx, *a, cnf);
                let lb = self.lit(ctx, *b, cnf);
                let v = cnf.fresh().positive();
                cnf.add([v.negate(), la.negate(), lb]);
                cnf.add([v.negate(), la, lb.negate()]);
                cnf.add([v, la, lb]);
                cnf.add([v, la.negate(), lb.negate()]);
                v
            }
            TermData::Distinct(_) => {
                panic!("distinct must be expanded by preprocessing")
            }
            TermData::Var(_) | TermData::App(_, _) | TermData::IntConst(_) => {
                panic!("non-boolean term in boolean position: {}", ctx.display(t))
            }
        };
        if self.lits.len() <= t.index() {
            self.lits.resize(ctx.term_count(), NO_LIT);
        }
        self.lits[t.index()] = l;
        l
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::{SatOutcome, SatSolver};

    fn solve_terms(ctx: &Context, assertions: &[TermId]) -> SatOutcome {
        let mut ts = Tseitin::new();
        let mut cnf = Cnf::new();
        for &a in assertions {
            let l = ts.lit(ctx, a, &mut cnf);
            cnf.add([l]);
        }
        SatSolver::from_cnf(&cnf).solve()
    }

    #[test]
    fn propositional_reasoning() {
        let mut ctx = Context::new();
        let a = ctx.var("a", Sort::Bool);
        let b = ctx.var("b", Sort::Bool);
        let ab = ctx.and([a, b]);
        assert!(matches!(solve_terms(&ctx, &[ab]), SatOutcome::Sat(_)));
        let na = ctx.not(a);
        let contra = ctx.and([a, na]);
        assert!(matches!(solve_terms(&ctx, &[contra]), SatOutcome::Unsat));
        let imp = ctx.implies(a, b);
        let nb = ctx.not(b);
        assert!(matches!(solve_terms(&ctx, &[imp, a, nb]), SatOutcome::Unsat));
        let iff = ctx.iff(a, b);
        assert!(matches!(solve_terms(&ctx, &[iff, a, nb]), SatOutcome::Unsat));
        assert!(matches!(solve_terms(&ctx, &[iff, a, b]), SatOutcome::Sat(_)));
    }

    #[test]
    fn atoms_are_collected() {
        let mut ctx = Context::new();
        let s = ctx.uninterpreted_sort("k");
        let x = ctx.var("x", s);
        let y = ctx.var("y", s);
        let e = ctx.eq(x, y);
        let a = ctx.var("a", Sort::Bool);
        let f = ctx.or([e, a]);
        let mut ts = Tseitin::new();
        let mut cnf = Cnf::new();
        ts.lit(&ctx, f, &mut cnf);
        assert_eq!(ts.atoms().len(), 1);
        assert_eq!(ts.atoms()[0].0, e);
    }

    #[test]
    fn bool_constants() {
        let mut ctx = Context::new();
        let t = ctx.tru();
        let f = ctx.fls();
        assert!(matches!(solve_terms(&ctx, &[t]), SatOutcome::Sat(_)));
        assert!(matches!(solve_terms(&ctx, &[f]), SatOutcome::Unsat));
    }

    #[test]
    fn persistent_cache_encodes_each_subterm_once() {
        let mut ctx = Context::new();
        let a = ctx.var("a", Sort::Bool);
        let b = ctx.var("b", Sort::Bool);
        let ab = ctx.and([a, b]);
        let mut ts = Tseitin::new();
        let mut cnf = Cnf::new();
        let l1 = ts.lit(&ctx, ab, &mut cnf);
        let clauses_after_first = cnf.len();
        let vars_after_first = cnf.n_vars;
        // Re-encoding the same term (or a superterm sharing it) adds no
        // definition clauses for the cached part.
        let l2 = ts.lit(&ctx, ab, &mut cnf);
        assert_eq!(l1, l2);
        assert_eq!(cnf.len(), clauses_after_first);
        assert_eq!(cnf.n_vars, vars_after_first);
        let nab = ctx.not(ab);
        let or = ctx.or([nab, a]);
        ts.lit(&ctx, or, &mut cnf);
        // Only the Or node is new: one fresh var, three clauses (2 + big).
        assert_eq!(cnf.n_vars, vars_after_first + 1);
    }
}
