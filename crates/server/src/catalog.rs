//! The multi-table catalog: name → scan server + admission gate.
//!
//! Each table owns a full threaded [`ScanServer`] (its own buffer pool,
//! I/O threads and ABM scheduler) plus an [`Admission`] gate, all
//! reporting into one shared [`Registry`] so the service's metrics read
//! as a single plane.  A table is an in-memory [`MemTable`] or a segment
//! file on disk ([`FileStore`]), and either is scheduled as the column
//! store it is: one column group per column, sized by its bytes.

use crate::admission::{Admission, AdmissionConfig, AdmissionTotals, Permit};
use cscan_core::threaded::{CScanHandle, ScanServer};
use cscan_core::{CScanPlan, ColSet, PolicyKind, TableModel};
use cscan_exec::{MemTable, Value};
use cscan_obs::Registry;
use cscan_proto::ServeError;
use cscan_storage::segment::FileStore;
use cscan_storage::{ChunkId, ChunkStore, ColumnId, DEFAULT_PAGE_SIZE};
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Per-table build knobs (executor sizing plus the admission gate).
#[derive(Debug, Clone)]
pub struct TableConfig {
    /// Scheduling policy for the table's ABM.
    pub policy: PolicyKind,
    /// Buffer-pool size: a page budget worth this many full-width chunks.
    /// A table spends it per column, so it holds proportionally more
    /// chunks of the scans that read fewer.
    pub buffer_chunks: u64,
    /// I/O worker threads.
    pub io_threads: usize,
    /// Simulated cost per page read (zero for real stores).
    pub io_cost_per_page: Duration,
    /// Admission bounds for the table.
    pub admission: AdmissionConfig,
}

impl Default for TableConfig {
    fn default() -> Self {
        TableConfig {
            policy: PolicyKind::Relevance,
            buffer_chunks: 16,
            io_threads: 2,
            io_cost_per_page: Duration::ZERO,
            admission: AdmissionConfig::default(),
        }
    }
}

/// One served table: its model, executor and admission gate.
pub struct TableEntry {
    name: String,
    model: TableModel,
    server: ScanServer,
    admission: Admission,
}

impl TableEntry {
    /// The catalog name clients address the table by.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The table's logical layout (chunks, columns, page counts).
    pub fn model(&self) -> &TableModel {
        &self.model
    }

    /// The table's threaded scan server.
    pub fn server(&self) -> &ScanServer {
        &self.server
    }

    /// The table's admission gate.
    pub fn admission(&self) -> &Admission {
        &self.admission
    }

    /// The columns the table can serve (an empty plan column set resolves
    /// to all of these).
    pub fn served_columns(&self) -> ColSet {
        self.model.all_columns()
    }

    /// Admits the scan (FIFO, may block up to the queue timeout) and
    /// attaches it.  The returned [`Permit`] must outlive the handle: the
    /// caller stores both so dropping the scan frees the slot.
    pub fn open_scan(&self, plan: &CScanPlan) -> Result<(Permit, CScanHandle), ServeError> {
        self.validate(plan)?;
        let permit = self.admission.admit()?;
        let handle = self.server.cscan(plan.clone());
        Ok((permit, handle))
    }

    /// Rejects plans that reference chunks or columns the table lacks —
    /// the wire lets a client ask for anything, so the catalog is where
    /// impossible requests become [`ServeError::BadRequest`].
    fn validate(&self, plan: &CScanPlan) -> Result<(), ServeError> {
        if let Some(ranges) = &plan.ranges {
            for r in ranges.ranges() {
                if r.end > self.model.num_chunks() {
                    return Err(ServeError::BadRequest(format!(
                        "range {}..{} past table end ({} chunks)",
                        r.start,
                        r.end,
                        self.model.num_chunks()
                    )));
                }
            }
        }
        if !plan.columns.is_subset_of(self.served_columns()) {
            return Err(ServeError::BadRequest(format!(
                "column set {:?} not within the table's {} columns",
                plan.columns,
                self.model.num_columns()
            )));
        }
        Ok(())
    }
}

/// Name → table map for the scan service.  Built once at startup, then
/// shared immutably across every connection thread.
pub struct Catalog {
    obs: Arc<Registry>,
    totals: Arc<AdmissionTotals>,
    tables: Vec<Arc<TableEntry>>,
}

impl Catalog {
    /// An empty catalog with its own metrics registry.
    pub fn new() -> Self {
        Self::with_observability(Arc::new(Registry::new()))
    }

    /// An empty catalog reporting into `obs`.
    pub fn with_observability(obs: Arc<Registry>) -> Self {
        Catalog {
            obs,
            totals: AdmissionTotals::new(),
            tables: Vec::new(),
        }
    }

    /// The registry every table and the network layer report into.
    pub fn observability(&self) -> Arc<Registry> {
        Arc::clone(&self.obs)
    }

    /// Serves `table` (an in-memory chunk store) under `name`, as a column
    /// store of its columns: each a chunk's rows of 8-byte values.
    pub fn add_mem_table(&mut self, name: impl Into<String>, table: MemTable, cfg: TableConfig) {
        let (start, end) = table.chunk_rows(ChunkId::new(0));
        let rows = (end - start).max(1);
        let bytes = rows * std::mem::size_of::<Value>() as u64;
        let model = column_store(table.num_chunks(), rows, vec![bytes; table.width()]);
        self.add_store(name, Arc::new(table), model, cfg);
    }

    /// Serves `store` under `name`, scheduled by `model`, which names every
    /// column the store can materialize.
    pub(crate) fn add_store(
        &mut self,
        name: impl Into<String>,
        store: Arc<dyn ChunkStore>,
        model: TableModel,
        cfg: TableConfig,
    ) {
        let name = name.into();
        let server = ScanServer::builder(model.clone())
            .policy(cfg.policy)
            .buffer_chunks(cfg.buffer_chunks.max(2))
            .io_threads(cfg.io_threads)
            .io_cost_per_page(cfg.io_cost_per_page)
            .store(store)
            .observability(Arc::clone(&self.obs))
            .table_label(name.clone())
            .build();
        let admission = Admission::new(
            cfg.admission,
            Arc::clone(&self.obs),
            Arc::clone(&self.totals),
        );
        self.tables.push(Arc::new(TableEntry {
            name,
            model,
            server,
            admission,
        }));
    }

    /// Serves the segment file at `path` under `name`, as the column store
    /// it is: the model comes from the segment's footer directory
    /// ([`model_from_segment`]), one page count per column extent, so a
    /// scan's loads read — and the buffer accounts — only the columns the
    /// scan asks for.
    ///
    /// Fails with [`io::ErrorKind::InvalidInput`] for a segment wider than
    /// [`ColSet::MAX_COLUMNS`] columns, which the format allows and the
    /// scheduler cannot address.
    pub fn add_segment(
        &mut self,
        name: impl Into<String>,
        path: &Path,
        cfg: TableConfig,
    ) -> io::Result<()> {
        let store = FileStore::open(path)?;
        if store.num_columns() > ColSet::MAX_COLUMNS {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "segment has {} columns; a table can schedule at most {}",
                    store.num_columns(),
                    ColSet::MAX_COLUMNS
                ),
            ));
        }
        let store = store.with_observability(Arc::clone(&self.obs));
        let model = model_from_segment(&store);
        self.add_store(name, Arc::new(store), model, cfg);
        Ok(())
    }

    /// Looks a table up by name.
    pub fn get(&self, name: &str) -> Option<&Arc<TableEntry>> {
        self.tables.iter().find(|t| t.name == name)
    }

    /// All tables, in registration order.
    pub fn tables(&self) -> &[Arc<TableEntry>] {
        &self.tables
    }

    /// Buffer frames currently pinned across every table — the leak check
    /// the benches assert reaches zero after all clients disconnect.
    pub fn pinned_frames(&self) -> usize {
        self.tables.iter().map(|t| t.server.pinned_frames()).sum()
    }
}

impl Default for Catalog {
    fn default() -> Self {
        Self::new()
    }
}

/// Derives a [`TableModel`] from a segment's footer directory — the column
/// store the file is: chunk count and rows straight from the directory, one
/// page count per column from that column's on-disk extent bytes (a
/// compressed column models proportionally less I/O).  The ABM then plans,
/// accounts and evicts per column, and a load reads, checksums and buffers
/// exactly the extents of the columns the scans waiting for it asked for.
/// Uniform over chunks, each column sized by its largest extent.
///
/// # Panics
/// Panics if the segment has more than [`ColSet::MAX_COLUMNS`] columns
/// ([`Catalog::add_segment`] refuses such a file instead).
pub fn model_from_segment(store: &FileStore) -> TableModel {
    let dir = store.directory();
    let chunks = dir.num_chunks();
    let rows = dir.chunk_rows(ChunkId::new(0)).unwrap_or(1).max(1);
    let bytes = (0..dir.num_columns())
        .map(|col| {
            let col = [ColumnId::new(col)];
            (0..chunks)
                .map(|c| dir.chunk_bytes(ChunkId::new(c), Some(&col)))
                .max()
                .unwrap_or(0)
        })
        .collect();
    column_store(chunks, rows, bytes)
}

/// The model every served table is scheduled by: `chunks` chunks of `rows`
/// rows, one group per column, column `c` spanning `bytes[c]` rounded up to
/// whole pages (at least one) in every chunk.
fn column_store(chunks: u32, rows: u64, bytes: Vec<u64>) -> TableModel {
    let pages: Vec<u64> = bytes
        .iter()
        .map(|b| b.div_ceil(DEFAULT_PAGE_SIZE).max(1))
        .collect();
    TableModel::dsm_uniform(chunks, rows, &pages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cscan_storage::{write_store, Compression, ScanRanges, ScratchPath, SeededStore};

    fn demo_catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.add_mem_table(
            "lineitem",
            MemTable::lineitem_demo(4_000, 500),
            TableConfig::default(),
        );
        cat.add_mem_table(
            "orders",
            MemTable::orders_demo(2_000, 500),
            TableConfig::default(),
        );
        cat
    }

    #[test]
    fn lookup_finds_registered_tables_only() {
        let cat = demo_catalog();
        assert!(cat.get("lineitem").is_some());
        assert!(cat.get("orders").is_some());
        assert!(cat.get("nope").is_none());
        assert_eq!(cat.tables().len(), 2);
    }

    #[test]
    fn open_scan_streams_the_table_and_releases_everything() {
        let cat = demo_catalog();
        let t = cat.get("lineitem").unwrap();
        let plan = CScanPlan::full_table("t", ColSet::first_n(2));
        let (permit, handle) = t.open_scan(&plan).expect("admitted");
        let mut chunks = 0;
        while let Some(pin) = handle.next_chunk().expect("clean scan") {
            assert!(pin.rows() > 0);
            pin.complete();
            chunks += 1;
        }
        assert_eq!(chunks, t.model().num_chunks());
        drop(handle);
        drop(permit);
        assert_eq!(t.admission().active(), 0, "permit released");
        assert_eq!(cat.pinned_frames(), 0, "no leaked pins");
    }

    /// A mem table is scheduled by the columns it stores, one page each
    /// here: a two-column scan's loads materialize those two and no more.
    #[test]
    fn a_two_column_scan_of_a_mem_table_loads_only_its_columns() {
        let cat = demo_catalog();
        let t = cat.get("lineitem").unwrap();
        let plan = CScanPlan::full_table("two", ColSet::first_n(2));
        let (_permit, handle) = t.open_scan(&plan).expect("admitted");
        let mut chunks = 0;
        while let Some(pin) = handle.next_chunk().expect("clean scan") {
            let loaded: Vec<u16> = ColSet::first_n(6)
                .iter()
                .filter(|&c| pin.payload().part(c).is_some())
                .map(|c| c.index())
                .collect();
            assert_eq!(loaded, [0, 1], "{:?}", pin.chunk());
            pin.complete();
            chunks += 1;
        }
        assert_eq!(chunks, t.model().num_chunks());
        let all = t.model().all_columns();
        assert_eq!(all, ColSet::first_n(6));
        assert_eq!(t.model().chunk_pages(ChunkId::new(0), all), 6);
    }

    #[test]
    fn impossible_plans_are_rejected_before_admission() {
        let cat = demo_catalog();
        let t = cat.get("orders").unwrap();
        let past_end = CScanPlan::new(
            "bad",
            ScanRanges::single(0, t.model().num_chunks() + 5),
            ColSet::empty(),
        );
        assert!(matches!(
            t.open_scan(&past_end),
            Err(ServeError::BadRequest(_))
        ));
        let bad_cols = CScanPlan::full_table("bad", ColSet::first_n(40));
        assert!(matches!(
            t.open_scan(&bad_cols),
            Err(ServeError::BadRequest(_))
        ));
        assert_eq!(t.admission().active(), 0, "rejects never admit");
    }

    #[test]
    fn a_segment_wider_than_a_column_set_is_refused() {
        let path = ScratchPath::new("catalog_65_columns");
        let wide = SeededStore::new(4, 65, 7);
        write_store(&path, &wide, 1, vec![Compression::None; 65]).unwrap();
        let mut cat = Catalog::new();
        let err = cat
            .add_segment("wide", &path, TableConfig::default())
            .expect_err("65 columns cannot be scheduled");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(cat.tables().is_empty());
    }
}
