//! Compact column sets.
//!
//! DSM scheduling constantly intersects, unions and counts sets of columns
//! (which columns does this query need, which are already cached for that
//! chunk, which do two queries share).  Tables in this reproduction have at
//! most 64 columns, so a bitmask is the natural representation.

use cscan_storage::ColumnId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A set of up to 64 columns, stored as a bitmask.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct ColSet(u64);

impl ColSet {
    /// The maximum number of distinct columns a set can hold.
    pub const MAX_COLUMNS: u16 = 64;

    /// The empty set.
    pub const EMPTY: ColSet = ColSet(0);

    /// Creates an empty set.
    pub const fn empty() -> Self {
        ColSet(0)
    }

    /// The set containing columns `0..n`.
    ///
    /// # Panics
    /// Panics if `n` exceeds [`Self::MAX_COLUMNS`].
    pub fn first_n(n: u16) -> Self {
        assert!(
            n <= Self::MAX_COLUMNS,
            "ColSet supports at most 64 columns, got {n}"
        );
        if n == 64 {
            ColSet(u64::MAX)
        } else {
            ColSet((1u64 << n) - 1)
        }
    }

    /// Builds a set from column ids.
    ///
    /// # Panics
    /// Panics if any column index is 64 or larger.
    pub fn from_columns<I: IntoIterator<Item = ColumnId>>(cols: I) -> Self {
        let mut s = ColSet::empty();
        for c in cols {
            s.insert(c);
        }
        s
    }

    /// Inserts a column.
    ///
    /// # Panics
    /// Panics if the column index is 64 or larger.
    pub fn insert(&mut self, col: ColumnId) {
        assert!(
            col.index() < Self::MAX_COLUMNS,
            "column index {} out of ColSet range",
            col.index()
        );
        self.0 |= 1u64 << col.index();
    }

    /// Removes a column.
    pub fn remove(&mut self, col: ColumnId) {
        if col.index() < Self::MAX_COLUMNS {
            self.0 &= !(1u64 << col.index());
        }
    }

    /// Whether the set contains `col`.
    pub fn contains(&self, col: ColumnId) -> bool {
        col.index() < Self::MAX_COLUMNS && (self.0 >> col.index()) & 1 == 1
    }

    /// Number of columns in the set.
    pub fn len(&self) -> u32 {
        self.0.count_ones()
    }

    /// True if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Set union.
    pub fn union(&self, other: ColSet) -> ColSet {
        ColSet(self.0 | other.0)
    }

    /// Set intersection.
    pub fn intersect(&self, other: ColSet) -> ColSet {
        ColSet(self.0 & other.0)
    }

    /// Columns in `self` but not in `other`.
    pub fn difference(&self, other: ColSet) -> ColSet {
        ColSet(self.0 & !other.0)
    }

    /// Whether every column of `self` is also in `other`.
    pub fn is_subset_of(&self, other: ColSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// Whether the two sets share at least one column.
    pub fn overlaps(&self, other: ColSet) -> bool {
        self.0 & other.0 != 0
    }

    /// Iterator over the column ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = ColumnId> + '_ {
        // One step per member, not per possible column: `chunk_pages` runs
        // this on the scheduler's per-candidate paths.
        let mut bits = self.0;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let col = bits.trailing_zeros() as u16;
                bits &= bits - 1;
                ColumnId::new(col)
            })
        })
    }

    /// Materializes the set as a vector of column ids in ascending order.
    pub fn to_vec(&self) -> Vec<ColumnId> {
        self.iter().collect()
    }

    /// The raw bitmask.
    pub fn bits(&self) -> u64 {
        self.0
    }

    /// Rebuilds a set from a raw bitmask (the wire-protocol encoding;
    /// inverse of [`ColSet::bits`]).
    pub const fn from_bits(bits: u64) -> Self {
        ColSet(bits)
    }
}

impl FromIterator<ColumnId> for ColSet {
    fn from_iter<T: IntoIterator<Item = ColumnId>>(iter: T) -> Self {
        ColSet::from_columns(iter)
    }
}

impl fmt::Debug for ColSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ColSet{{")?;
        let mut first = true;
        for c in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{}", c.index())?;
            first = false;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(i: u16) -> ColumnId {
        ColumnId::new(i)
    }

    #[test]
    fn insert_contains_remove() {
        let mut s = ColSet::empty();
        assert!(s.is_empty());
        s.insert(col(3));
        s.insert(col(63));
        assert!(s.contains(col(3)));
        assert!(s.contains(col(63)));
        assert!(!s.contains(col(4)));
        assert_eq!(s.len(), 2);
        s.remove(col(3));
        assert!(!s.contains(col(3)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn first_n_and_full_set() {
        assert_eq!(ColSet::first_n(0), ColSet::empty());
        assert_eq!(ColSet::first_n(3).to_vec(), vec![col(0), col(1), col(2)]);
        assert_eq!(ColSet::first_n(64).len(), 64);
    }

    #[test]
    fn set_algebra() {
        let a = ColSet::from_columns([col(0), col(1), col(2)]);
        let b = ColSet::from_columns([col(2), col(3)]);
        assert_eq!(a.union(b).len(), 4);
        assert_eq!(a.intersect(b).to_vec(), vec![col(2)]);
        assert_eq!(a.difference(b).to_vec(), vec![col(0), col(1)]);
        assert!(a.overlaps(b));
        assert!(!a.is_subset_of(b));
        assert!(a.intersect(b).is_subset_of(a));
        let disjoint = ColSet::from_columns([col(10)]);
        assert!(!a.overlaps(disjoint));
    }

    #[test]
    fn iteration_order_is_ascending() {
        let s = ColSet::from_columns([col(9), col(1), col(40)]);
        let v: Vec<u16> = s.iter().map(|c| c.index()).collect();
        assert_eq!(v, vec![1, 9, 40]);
        let collected: ColSet = s.iter().collect();
        assert_eq!(collected, s);
    }

    #[test]
    fn debug_format() {
        let s = ColSet::from_columns([col(2), col(5)]);
        assert_eq!(format!("{s:?}"), "ColSet{2,5}");
    }

    #[test]
    #[should_panic(expected = "out of ColSet range")]
    fn oversized_column_rejected() {
        let mut s = ColSet::empty();
        s.insert(col(64));
    }

    #[test]
    #[should_panic(expected = "at most 64 columns")]
    fn oversized_first_n_rejected() {
        ColSet::first_n(65);
    }

    #[test]
    fn empty_set_properties() {
        let e = ColSet::EMPTY;
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        assert!(e.is_subset_of(ColSet::first_n(5)));
        assert!(!e.overlaps(ColSet::first_n(5)));
        assert_eq!(e.bits(), 0);
    }
}
