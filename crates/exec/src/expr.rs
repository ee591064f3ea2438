//! Scalar expressions and predicates over data chunks.
//!
//! A predicate does not produce values: it writes a selection vector, the
//! ascending physical rows that pass (see [`crate::vector`]).  `And`
//! narrows by one side, then the other.  A comparison of a column with a
//! constant, or `Between` on a column, is a *range select*: one unsigned
//! compare a row reads the column in place, and for a dense batch the rows
//! are written 64 at a time into a block buffer whose cursor advances by
//! the verdict, then appended — the selection is not zeroed first and no
//! branch depends on a row's verdict.  Narrowing an existing selection
//! rewrites it in place the same way.  Anything else is evaluated into a
//! scratch vector for the candidate rows and selected on its non-zero
//! values.

use crate::vector::{DataChunk, Value};
use serde::{Deserialize, Serialize};

/// A scalar expression evaluated column-at-a-time.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Expr {
    /// Reference to an input column by position.
    Col(usize),
    /// A constant.
    Const(Value),
    /// Addition.
    Add(Box<Expr>, Box<Expr>),
    /// Subtraction.
    Sub(Box<Expr>, Box<Expr>),
    /// Multiplication.
    Mul(Box<Expr>, Box<Expr>),
    /// Comparison: equal (produces 1 or 0).
    Eq(Box<Expr>, Box<Expr>),
    /// Comparison: less-than.
    Lt(Box<Expr>, Box<Expr>),
    /// Comparison: less-or-equal.
    Le(Box<Expr>, Box<Expr>),
    /// Comparison: greater-or-equal.
    Ge(Box<Expr>, Box<Expr>),
    /// Logical AND of two boolean (0/1) expressions.
    And(Box<Expr>, Box<Expr>),
    /// Inclusive range check: `lo <= expr <= hi`.
    Between(Box<Expr>, Value, Value),
}

impl Expr {
    /// Column reference.
    pub fn col(i: usize) -> Expr {
        Expr::Col(i)
    }

    /// Constant.
    pub fn lit(v: Value) -> Expr {
        Expr::Const(v)
    }

    /// `self + rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, rhs: Expr) -> Expr {
        Expr::Add(Box::new(self), Box::new(rhs))
    }

    /// `self - rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, rhs: Expr) -> Expr {
        Expr::Sub(Box::new(self), Box::new(rhs))
    }

    /// `self * rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, rhs: Expr) -> Expr {
        Expr::Mul(Box::new(self), Box::new(rhs))
    }

    /// `self == rhs` (as 0/1).
    pub fn eq(self, rhs: Expr) -> Expr {
        Expr::Eq(Box::new(self), Box::new(rhs))
    }

    /// `self < rhs` (as 0/1).
    pub fn lt(self, rhs: Expr) -> Expr {
        Expr::Lt(Box::new(self), Box::new(rhs))
    }

    /// `self <= rhs` (as 0/1).
    pub fn le(self, rhs: Expr) -> Expr {
        Expr::Le(Box::new(self), Box::new(rhs))
    }

    /// `self >= rhs` (as 0/1).
    pub fn ge(self, rhs: Expr) -> Expr {
        Expr::Ge(Box::new(self), Box::new(rhs))
    }

    /// `self && rhs` for boolean expressions.
    pub fn and(self, rhs: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(rhs))
    }

    /// `lo <= self <= hi`.
    pub fn between(self, lo: Value, hi: Value) -> Expr {
        Expr::Between(Box::new(self), lo, hi)
    }

    /// Evaluates the expression over every (selected) row of `chunk`.
    pub fn eval(&self, chunk: &DataChunk) -> Vec<Value> {
        let mut out = Vec::with_capacity(chunk.len());
        self.eval_into(chunk, chunk.selection(), &mut out, &mut Scratch::default());
        out
    }

    /// Overwrites `out` with the expression's value at each of `rows`
    /// (physical indices; `None` = every physical row of `chunk`).
    /// Intermediates live in `scratch`, so a warmed-up caller allocates
    /// nothing.
    pub(crate) fn eval_into(
        &self,
        chunk: &DataChunk,
        rows: Option<&[u32]>,
        out: &mut Vec<Value>,
        scratch: &mut Scratch,
    ) {
        let args = (chunk, rows, scratch);
        match self {
            Expr::Col(c) => {
                out.clear();
                chunk.gather_rows(*c, rows, out);
            }
            Expr::Const(v) => {
                out.clear();
                out.resize(rows.map_or(chunk.physical_len(), <[u32]>::len), *v);
            }
            Expr::Add(a, b) => binary(a, b, args, out, Value::wrapping_add),
            Expr::Sub(a, b) => binary(a, b, args, out, Value::wrapping_sub),
            Expr::Mul(a, b) => binary(a, b, args, out, Value::wrapping_mul),
            Expr::Eq(a, b) => binary(a, b, args, out, |x, y| (x == y) as Value),
            Expr::Lt(a, b) => binary(a, b, args, out, |x, y| (x < y) as Value),
            Expr::Le(a, b) => binary(a, b, args, out, |x, y| (x <= y) as Value),
            Expr::Ge(a, b) => binary(a, b, args, out, |x, y| (x >= y) as Value),
            Expr::And(a, b) => binary(a, b, args, out, |x, y| (x != 0 && y != 0) as Value),
            Expr::Between(e, lo, hi) => {
                e.eval_into(chunk, rows, out, args.2);
                for v in out.iter_mut() {
                    *v = (*lo <= *v && *v <= *hi) as Value;
                }
            }
        }
    }

    /// Narrows the candidate rows in `sel` to those where the predicate is
    /// non-zero.  With `all` set the candidates are every physical row of
    /// `chunk` and `sel`'s content on entry is ignored; otherwise `sel`
    /// lists them (ascending) and is narrowed in place.
    ///
    /// `And` narrows by one side, then the other; a range test on a column
    /// reads the column directly, as one unsigned compare a row; anything
    /// else is evaluated for the candidates only.
    pub(crate) fn select(
        &self,
        chunk: &DataChunk,
        sel: &mut Vec<u32>,
        all: bool,
        scratch: &mut Scratch,
    ) {
        if let Expr::And(a, b) = self {
            a.select(chunk, sel, all, scratch);
            b.select(chunk, sel, false, scratch);
        } else if let Some((c, lo, hi)) = self.as_column_range() {
            if lo > hi {
                sel.clear();
                return;
            }
            // `lo <= v <= hi` iff `v - lo`, wrapped and read unsigned, is at
            // most `hi - lo`.
            let span = hi.wrapping_sub(lo) as u64;
            let within = move |v: Value| v.wrapping_sub(lo) as u64 <= span;
            let col = chunk.physical_column(c);
            if all {
                select_all(sel, col, within);
            } else {
                narrow(sel, |_, r| within(col[r]));
            }
        } else {
            let mut values = scratch.take();
            let rows = if all { None } else { Some(sel.as_slice()) };
            self.eval_into(chunk, rows, &mut values, scratch);
            if all {
                select_all(sel, &values, |v| v != 0);
            } else {
                narrow(sel, |i, _| values[i] != 0);
            }
            scratch.give(values);
        }
    }

    /// `(c, lo, hi)` if the predicate is `lo <= Col(c) <= hi`: `Between` on
    /// a column, or a column compared with a constant.
    fn as_column_range(&self) -> Option<(usize, Value, Value)> {
        let (a, b) = match self {
            Expr::Between(e, lo, hi) => return Some((e.as_col()?, *lo, *hi)),
            Expr::Eq(a, b) | Expr::Lt(a, b) | Expr::Le(a, b) | Expr::Ge(a, b) => (a, b),
            _ => return None,
        };
        let (c, &Expr::Const(v)) = (a.as_col()?, &**b) else {
            return None;
        };
        Some(match self {
            Expr::Eq(..) => (c, v, v),
            Expr::Le(..) => (c, Value::MIN, v),
            Expr::Ge(..) => (c, v, Value::MAX),
            // `col < MIN` holds nowhere: an empty range.
            _ => v
                .checked_sub(1)
                .map_or((c, 0, -1), |hi| (c, Value::MIN, hi)),
        })
    }

    fn as_col(&self) -> Option<usize> {
        match self {
            Expr::Col(c) => Some(*c),
            _ => None,
        }
    }
}

/// Reusable intermediate vectors of expression evaluation: as many as the
/// deepest expression evaluated so far needed at once.
#[derive(Debug, Default)]
pub(crate) struct Scratch(Vec<Vec<Value>>);

impl Scratch {
    fn take(&mut self) -> Vec<Value> {
        self.0.pop().unwrap_or_default()
    }

    fn give(&mut self, buffer: Vec<Value>) {
        self.0.push(buffer);
    }
}

/// `out = f(a, b)` row by row: `a` is evaluated into `out`, `b` is read in
/// place when it is a constant or a column of all rows, and into a scratch
/// vector otherwise.
fn binary(
    a: &Expr,
    b: &Expr,
    (chunk, rows, scratch): (&DataChunk, Option<&[u32]>, &mut Scratch),
    out: &mut Vec<Value>,
    f: impl Fn(Value, Value) -> Value,
) {
    a.eval_into(chunk, rows, out, scratch);
    let zip = |out: &mut Vec<Value>, rhs: &[Value]| {
        debug_assert_eq!(out.len(), rhs.len());
        for (x, &y) in out.iter_mut().zip(rhs) {
            *x = f(*x, y);
        }
    };
    match (b, rows) {
        (Expr::Const(v), _) => out.iter_mut().for_each(|x| *x = f(*x, *v)),
        (Expr::Col(c), None) => zip(out, chunk.physical_column(*c)),
        _ => {
            let mut rhs = scratch.take();
            b.eval_into(chunk, rows, &mut rhs, scratch);
            zip(out, &rhs);
            scratch.give(rhs);
        }
    }
}

/// Rewrites `sel` as the rows `r` with `pred(values[r])`, 64 rows at a
/// time: every row is written to a block buffer whose cursor advances by
/// the verdict, so no branch depends on a verdict, and the block's kept
/// rows are appended at once — `sel` is never zeroed first.
fn select_all(sel: &mut Vec<u32>, values: &[Value], pred: impl Fn(Value) -> bool) {
    const BLOCK: usize = 64;
    sel.clear();
    sel.reserve(values.len());
    let mut kept = [0u32; BLOCK];
    for (block, values) in values.chunks(BLOCK).enumerate() {
        let base = (block * BLOCK) as u32;
        let mut n = 0;
        for (i, &v) in values.iter().enumerate() {
            // `n <= i < BLOCK`; the mask lets the compiler see it.
            kept[n & (BLOCK - 1)] = base + i as u32;
            n += pred(v) as usize;
        }
        sel.extend_from_slice(&kept[..n]);
    }
}

/// Keeps the rows of `sel` for which `pred(position, physical row)`
/// holds, in place.  Branch-free: the row is always written and the write
/// cursor advances by the verdict.
fn narrow(sel: &mut Vec<u32>, pred: impl Fn(usize, usize) -> bool) {
    let mut kept = 0;
    for i in 0..sel.len() {
        let r = sel[i];
        sel[kept] = r;
        kept += pred(i, r as usize) as usize;
    }
    sel.truncate(kept);
}

#[cfg(test)]
mod tests {
    use super::*;
    use cscan_storage::ChunkId;

    fn chunk() -> DataChunk {
        DataChunk::new(
            ChunkId::new(0),
            vec![vec![1, 2, 3, 4], vec![10, 20, 30, 40]],
        )
    }

    /// The physical rows `pred` selects out of all of `chunk`'s.
    fn selected(pred: &Expr, chunk: &DataChunk) -> Vec<u32> {
        let mut sel = vec![99; 2];
        pred.select(chunk, &mut sel, true, &mut Scratch::default());
        sel
    }

    #[test]
    fn arithmetic() {
        let c = chunk();
        assert_eq!(
            Expr::col(0).add(Expr::col(1)).eval(&c),
            vec![11, 22, 33, 44]
        );
        assert_eq!(Expr::col(1).sub(Expr::lit(5)).eval(&c), vec![5, 15, 25, 35]);
        assert_eq!(Expr::col(0).mul(Expr::lit(3)).eval(&c), vec![3, 6, 9, 12]);
        assert_eq!(Expr::lit(7).eval(&c), vec![7, 7, 7, 7]);
    }

    #[test]
    fn comparisons_and_logic() {
        let c = chunk();
        assert_eq!(Expr::col(0).lt(Expr::lit(3)).eval(&c), vec![1, 1, 0, 0]);
        assert_eq!(Expr::col(0).le(Expr::lit(3)).eval(&c), vec![1, 1, 1, 0]);
        assert_eq!(Expr::col(0).ge(Expr::lit(3)).eval(&c), vec![0, 0, 1, 1]);
        assert_eq!(Expr::col(0).eq(Expr::lit(2)).eval(&c), vec![0, 1, 0, 0]);
        let both = Expr::col(0)
            .ge(Expr::lit(2))
            .and(Expr::col(1).lt(Expr::lit(40)));
        assert_eq!(both.eval(&c), vec![0, 1, 1, 0]);
        assert_eq!(selected(&both, &c), vec![1, 2]);
    }

    #[test]
    fn between() {
        let c = chunk();
        assert_eq!(Expr::col(1).between(15, 35).eval(&c), vec![0, 1, 1, 0]);
        assert_eq!(Expr::col(1).between(10, 40).eval(&c), vec![1, 1, 1, 1]);
        assert_eq!(Expr::col(1).between(41, 50).eval(&c), vec![0, 0, 0, 0]);
    }

    #[test]
    fn q6_style_predicate() {
        // shipdate in [100, 200), discount between 2 and 4, quantity < 24 —
        // structurally the TPC-H Q6 predicate.
        let c = DataChunk::new(
            ChunkId::new(0),
            vec![
                vec![150, 250, 120, 199], // shipdate
                vec![3, 3, 1, 4],         // discount
                vec![10, 10, 10, 30],     // quantity
            ],
        );
        let pred = Expr::col(0)
            .between(100, 199)
            .and(Expr::col(1).between(2, 4))
            .and(Expr::col(2).lt(Expr::lit(24)));
        assert_eq!(selected(&pred, &c), vec![0]);
    }
}
