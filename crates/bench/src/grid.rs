//! Experiments as tables: labelled axes in, coordinate-indexed results
//! and report cells out.
//!
//! Every harness evaluates a grid — design × load × policy — and used to
//! spell out the same four steps by hand. A [`Grid`] owns them:
//!
//! 1. **Enumeration.** [`Grid::product`] lists the cells of its [`Axis`]
//!    list in row-major order (the last axis varies fastest);
//!    [`Grid::retain`] thins the product to a ragged list when an axis
//!    depends on another (Table 2's per-design capacities).
//! 2. **Seeding.** A cell's RNG seed is [`sweep::cell_seed`] over its
//!    coordinates, optionally wrapped by [`Grid::seed_prefix`] /
//!    [`Grid::seed_suffix`] so two grids over the same axes (a measured
//!    grid and its per-row saturation searches, say) draw distinct
//!    streams.
//! 3. **Fan-out.** [`Grid::run`] hands the cells to
//!    [`sweep::run_with_workers`]; results come back in cell order for
//!    any worker count.
//! 4. **Emission.** [`Results::report`] pushes one `Report` cell per grid
//!    cell — the axes' key/label pairs, the grid's [`Grid::tag`]s, then
//!    the record — while [`Results::at`], [`Results::rows`] and
//!    [`Results::table`] serve the same values by coordinate for the
//!    text table. [`Results::report_rows`] and [`Spread`] summarise a
//!    trailing axis of repeated draws.
//!
//! A simulation experiment is then a base `NetworkConfig`, its axes and
//! its columns: [`Grid::measure`] and [`Grid::saturate`] turn a
//! cell → configuration closure into seeded measurements or saturation
//! searches.
//!
//! # Examples
//!
//! ```
//! use damq_bench::grid::{Axis, Grid};
//! use damq_bench::json::{Json, Report};
//!
//! let loads = [0.25, 0.5];
//! let grid = Grid::product([
//!     Axis::new("buffer", ["FIFO", "DAMQ"]),
//!     Axis::new("offered_load", loads),
//! ]);
//! // A toy "measurement": any Fn(&Cell) -> R + Sync closure works.
//! let results = grid.run(|c| loads[c[1]] * (c[0] + 1) as f64);
//! assert_eq!(*results.at(&[1, 0]), 0.5);
//! // One table row per buffer, one column per load.
//! let rows = results.rows(1);
//! assert_eq!(rows[1], (&[1][..], &[0.5, 1.0][..]));
//! let table = results.table(1, &["buffer", "25%", "50%"], |_, at_loads| {
//!     at_loads.iter().map(|v| format!("{v:.2}")).collect()
//! });
//! assert_eq!(table.lines().last(), Some("  DAMQ  0.50  1.00"));
//!
//! let mut report = Report::new("doc_example");
//! results.report(&mut report, |&v| Json::from(v));
//! assert!(report
//!     .body()
//!     .render()
//!     .contains(r#"{"buffer":"DAMQ","offered_load":0.25,"value":0.5}"#));
//! ```

use std::ops::Index;

use damq_net::{
    find_saturation, measure, Measurement, NetworkConfig, SaturationOptions, SaturationResult,
};

use crate::json::{Json, Report};
use crate::render_table;
use crate::sweep;

/// The trailing seed coordinate of a per-row search that sits next to a
/// measured grid over the same leading axes (`[k, SEARCH]` beside
/// `[k, l]`): no measured cell has this index, so the search never
/// shares a stream with one.
pub const SEARCH: u64 = u64::MAX;

/// One key/label pair of a report cell.
pub type Label = (&'static str, Json);

/// One dimension of a [`Grid`]: the labels each index along it
/// contributes to a report cell.
#[derive(Debug, Clone)]
pub struct Axis {
    points: Vec<Vec<Label>>,
}

impl Axis {
    /// An axis whose `i`-th point is labelled `key: values[i]`.
    pub fn new<T: Into<Json>>(key: &'static str, values: impl IntoIterator<Item = T>) -> Axis {
        Axis::compound(values.into_iter().map(|v| vec![(key, v.into())]))
    }

    /// An axis whose points each carry several labels — a column list
    /// that is not itself a product (Table 3's (load, arbiter) variants).
    pub fn compound(points: impl IntoIterator<Item = Vec<Label>>) -> Axis {
        Axis {
            points: points.into_iter().collect(),
        }
    }
}

/// One grid cell: its coordinates (index with `cell[axis]`) and the
/// coordinate sequence its seeds derive from.
#[derive(Debug, Clone)]
pub struct Cell {
    coords: Vec<usize>,
    seed_coords: Vec<u64>,
}

impl Cell {
    /// The cell's RNG seed under [`sweep::BASE_SEED`].
    pub fn seed(&self) -> u64 {
        self.seed_from(sweep::BASE_SEED)
    }

    /// The cell's RNG seed under another base — how one cell derives
    /// several independent streams from the same coordinates.
    pub fn seed_from(&self, base: u64) -> u64 {
        sweep::cell_seed(base, &self.seed_coords)
    }
}

impl Index<usize> for Cell {
    type Output = usize;

    fn index(&self, axis: usize) -> &usize {
        &self.coords[axis]
    }
}

/// A list of labelled cells plus the convention that seeds them.
#[derive(Debug, Clone)]
pub struct Grid {
    axes: Vec<Axis>,
    tags: Vec<Label>,
    cells: Vec<Cell>,
}

impl Grid {
    /// The full product of `axes`, row-major: the last axis varies
    /// fastest, exactly as nested `for` loops in axis order would.
    pub fn product(axes: impl IntoIterator<Item = Axis>) -> Grid {
        let axes: Vec<Axis> = axes.into_iter().collect();
        let mut all: Vec<Vec<usize>> = vec![Vec::new()];
        for axis in &axes {
            let extend = |head: &Vec<usize>| {
                let head = head.clone();
                (0..axis.points.len()).map(move |i| [head.as_slice(), &[i]].concat())
            };
            all = all.iter().flat_map(extend).collect();
        }
        let cell = |coords: Vec<usize>| Cell {
            seed_coords: coords.iter().map(|&c| c as u64).collect(),
            coords,
        };
        let cells = all.into_iter().map(cell).collect();
        Grid {
            axes,
            tags: Vec::new(),
            cells,
        }
    }

    /// Keeps only the cells `keep` accepts, in order — a ragged grid.
    #[must_use]
    pub fn retain(mut self, keep: impl Fn(&Cell) -> bool) -> Grid {
        self.cells.retain(keep);
        self
    }

    /// Prepends `coord` to every cell's seed coordinates (`[p, k, l]`):
    /// separates two grids over the same axes within one experiment.
    #[must_use]
    pub fn seed_prefix(mut self, coord: u64) -> Grid {
        for cell in &mut self.cells {
            cell.seed_coords.insert(0, coord);
        }
        self
    }

    /// Appends `coord` to every cell's seed coordinates (`[k, SEARCH]`).
    #[must_use]
    pub fn seed_suffix(mut self, coord: u64) -> Grid {
        for cell in &mut self.cells {
            cell.seed_coords.push(coord);
        }
        self
    }

    /// Adds a constant label emitted after the axis labels of every cell.
    #[must_use]
    pub fn tag(mut self, key: &'static str, value: impl Into<Json>) -> Grid {
        self.tags.push((key, value.into()));
        self
    }

    /// The cells, in enumeration order.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// The key/label pairs of `cell`: axis labels in axis order, then
    /// the grid's tags.
    pub fn labels(&self, cell: &Cell) -> Vec<Label> {
        self.axes
            .iter()
            .zip(&cell.coords)
            .flat_map(|(axis, &i)| axis.points[i].iter().cloned())
            .chain(self.tags.iter().cloned())
            .collect()
    }

    /// Evaluates `f` on every cell across [`sweep::worker_count`]
    /// workers.
    pub fn run<R: Send>(self, f: impl Fn(&Cell) -> R + Sync) -> Results<R> {
        self.run_on(sweep::worker_count(), f)
    }

    fn run_on<R: Send>(self, workers: usize, f: impl Fn(&Cell) -> R + Sync) -> Results<R> {
        let values = sweep::run_with_workers(&self.cells, workers, f);
        self.with_values(values)
    }

    /// Simulates every cell: `config(cell)`, seeded from the cell's
    /// coordinates, measured over `window` cycles after `warm_up`.
    ///
    /// # Panics
    ///
    /// Panics if a cell's configuration is invalid.
    pub fn measure(
        self,
        warm_up: u64,
        window: u64,
        config: impl Fn(&Cell) -> NetworkConfig + Sync,
    ) -> Results<Measurement> {
        self.run(|c| {
            measure(config(c).seed(c.seed()), warm_up, window)
                .expect("grid cell configuration is valid")
        })
    }

    /// Searches every cell's saturation throughput: `config(cell)`,
    /// seeded from the cell's coordinates, under the default
    /// [`SaturationOptions`].
    ///
    /// # Panics
    ///
    /// Panics if a cell's configuration is invalid.
    pub fn saturate(
        self,
        config: impl Fn(&Cell) -> NetworkConfig + Sync,
    ) -> Results<SaturationResult> {
        self.run(|c| {
            find_saturation(config(c).seed(c.seed()), SaturationOptions::default())
                .expect("grid cell configuration is valid")
        })
    }

    /// Pairs the grid with one value per cell, in cell order.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub(crate) fn with_values<R>(self, values: Vec<R>) -> Results<R> {
        assert_eq!(values.len(), self.cells.len(), "one value per grid cell");
        Results { grid: self, values }
    }
}

/// What a [`Grid`] evaluated to: one value per cell, addressable by
/// position, by coordinates, or by table row.
#[derive(Debug, Clone)]
pub struct Results<R> {
    grid: Grid,
    values: Vec<R>,
}

impl<R> Results<R> {
    /// The grid these values belong to.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// `(cell, value)` pairs in enumeration order.
    pub fn iter(&self) -> impl Iterator<Item = (&Cell, &R)> {
        self.grid.cells.iter().zip(&self.values)
    }

    /// The value of the cell at `coords`.
    ///
    /// # Panics
    ///
    /// Panics if the grid has no such cell.
    pub fn at(&self, coords: &[usize]) -> &R {
        let index = self
            .grid
            .cells
            .iter()
            .position(|cell| cell.coords == coords)
            .unwrap_or_else(|| panic!("no grid cell at {coords:?}"));
        &self.values[index]
    }

    /// Table rows: consecutive cells sharing their first `depth`
    /// coordinates, as `(leading coordinates, values along the rest)`.
    pub fn rows(&self, depth: usize) -> Vec<(&[usize], &[R])> {
        let cells = &self.grid.cells;
        let mut rows = Vec::new();
        let mut start = 0;
        for end in 1..=cells.len() {
            if end == cells.len() || cells[end].coords[..depth] != cells[start].coords[..depth] {
                rows.push((&cells[start].coords[..depth], &self.values[start..end]));
                start = end;
            }
        }
        rows
    }

    /// Renders the fixed-width text table with one row per
    /// [`Results::rows`]`(depth)` entry: the labels of the row's leading
    /// coordinates, then `columns(leading coordinates, values)`.
    pub fn table<H: AsRef<str>>(
        &self,
        depth: usize,
        header: &[H],
        columns: impl Fn(&[usize], &[R]) -> Vec<String>,
    ) -> String {
        let rows = self.rows(depth).into_iter().map(|(leading, values)| {
            let labels = self.leading_labels(leading).map(|(_, label)| match label {
                Json::Str(text) => text.clone(),
                other => other.render(),
            });
            labels.chain(columns(leading, values)).collect()
        });
        let header: Vec<&str> = header.iter().map(AsRef::as_ref).collect();
        render_table(&header, &rows.collect::<Vec<_>>())
    }

    /// Pushes one report cell per grid cell: its labels, then
    /// `record(value)` flattened in (see [`Json::cell`]).
    pub fn report(&self, report: &mut Report, record: impl Fn(&R) -> Json) {
        for (cell, value) in self.iter() {
            report.push_cell(Json::cell(self.grid.labels(cell), record(value)));
        }
    }

    /// Pushes one report cell per [`Results::rows`]`(depth)` entry: the
    /// labels of the row's leading coordinates, then `record(values)`
    /// flattened in — a summary over the trailing axes.
    pub fn report_rows(&self, depth: usize, report: &mut Report, record: impl Fn(&[R]) -> Json) {
        for (leading, values) in self.rows(depth) {
            report.push_cell(Json::cell(self.leading_labels(leading), record(values)));
        }
    }

    fn leading_labels<'a>(&'a self, leading: &'a [usize]) -> impl Iterator<Item = Label> + 'a {
        let axes = self.grid.axes.iter().zip(leading);
        axes.flat_map(|(axis, &i)| axis.points[i].iter().cloned())
    }
}

/// Mean and range of one metric over repeated draws of the same point —
/// what a paired experiment reports per design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Sample mean.
    pub mean: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Spread {
    /// The spread of the number at `path` — nested object keys — across
    /// `records`, or `None` if there are no records or any lacks the
    /// number.
    ///
    /// # Examples
    ///
    /// ```
    /// use damq_bench::grid::Spread;
    /// use damq_bench::json::Json;
    ///
    /// let draw = |v: f64| Json::obj([("m", Json::obj([("x", Json::from(v))]))]);
    /// let s = Spread::of_field(&[draw(0.5), draw(0.25), draw(0.75)], &["m", "x"]).unwrap();
    /// assert_eq!((s.mean, s.min, s.max), (0.5, 0.25, 0.75));
    /// assert_eq!(s.to_string(), "0.500 (0.250–0.750)");
    /// assert_eq!(Spread::of_field(&[draw(0.5), Json::Null], &["m", "x"]), None);
    /// ```
    pub fn of_field(records: &[Json], path: &[&str]) -> Option<Spread> {
        let field = |record| path.iter().try_fold(record, |at: &Json, key| at.get(key));
        let samples: Vec<f64> = records
            .iter()
            .map(|r| field(r)?.as_f64())
            .collect::<Option<_>>()?;
        let first = *samples.first()?;
        let spread = Spread {
            mean: samples.iter().sum::<f64>() / samples.len() as f64,
            min: samples.iter().copied().fold(first, f64::min),
            max: samples.iter().copied().fold(first, f64::max),
        };
        Some(spread)
    }

    /// `{"mean": .., "min": .., "max": ..}`.
    pub fn to_json(self) -> Json {
        Json::obj([
            ("mean", Json::from(self.mean)),
            ("min", Json::from(self.min)),
            ("max", Json::from(self.max)),
        ])
    }
}

impl std::fmt::Display for Spread {
    /// `mean (min–max)` at three decimals.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3} ({:.3}–{:.3})", self.mean, self.min, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table4_axes() -> [Axis; 2] {
        [
            Axis::new("buffer", ["FIFO", "DAMQ", "SAFC", "SAMQ"]),
            Axis::new("offered_load", [0.25, 0.30, 0.40, 0.50]),
        ]
    }

    #[test]
    fn product_is_row_major_and_coordinate_lookup_matches_the_engine() {
        let grid = Grid::product([
            Axis::new("a", [0usize, 1]),
            Axis::new("b", [0usize, 1, 2]),
            Axis::new("c", [0usize, 1]),
        ]);
        let coords: Vec<&[usize]> = grid.cells().iter().map(|c| &c.coords[..]).collect();
        assert_eq!(coords[..4], [[0, 0, 0], [0, 0, 1], [0, 1, 0], [0, 1, 1]]);
        assert_eq!(coords.len(), 12);
        assert_eq!(coords[11], [1, 2, 1]);

        let f = |c: &Cell| c[0] * 100 + c[1] * 10 + c[2];
        let serial = sweep::run_with_workers(grid.cells(), 1, f);
        for workers in [1, 4] {
            let results = grid.clone().run_on(workers, f);
            for (i, cell) in grid.cells().iter().enumerate() {
                assert_eq!(*results.at(&cell.coords), serial[i], "{workers} workers");
            }
            assert_eq!(*results.at(&[1, 2, 0]), 120);
        }
    }

    /// `cell_seed(BASE_SEED, &[k, l])` for Table 4's 4 x 4 measured
    /// cells, recorded from the hand-written binary this module replaced.
    #[rustfmt::skip]
    const TABLE4_MEASURED: [u64; 16] = [
        0xC26958517CB4F660, 0x51074A06C29D8767, 0xB2D8EC604EACAF0B, 0x869C94AFDF15F4F7,
        0x4DD75871C07EBB13, 0x41DC297F5B2CE9A8, 0x7273D32AF11498FA, 0x5E035978B28E410F,
        0x9C5107000C627C69, 0x59BCBDBFF9D270CC, 0x07C482556377DC19, 0xE5A1F1265681F985,
        0x1790B54F543B254A, 0xD0B66DD7E735B4FC, 0x80AC7695CBE9B964, 0xDB02F8BF5CE848C1,
    ];
    /// `cell_seed(BASE_SEED, &[k, u64::MAX])` for its four searches.
    const TABLE4_SEARCHES: [u64; 4] = [
        0xDB5A637C1C55ECDD,
        0x49F61D8676912426,
        0x9343087F56B0924D,
        0xB18D213EFD05A478,
    ];
    /// `cell_seed(BASE_SEED, &[f, k, p])` for `ablation_arbitration`:
    /// protocol prefix `f`, four designs, two policies.
    #[rustfmt::skip]
    const ARBITRATION: [[u64; 8]; 2] = [
        [
            0xC1E121F47ACC3526, 0xC14008B5E59502DB, 0xFBBE8DA3A7B0A049, 0x87D372205AF5AEC6,
            0xA050FC5E84D953BA, 0x10EA962D15F54F5D, 0xB0B25B359C63D88B, 0xA832BC5FD83E2BCC,
        ],
        [
            0x73A26241FAD42A6D, 0x81FB980810D427A4, 0x17F84F120EAEBAE2, 0xFD47BA8D9E592383,
            0xE7B6446E8827307D, 0xD5351A02896579F5, 0xDD6BBB7CE2A168B4, 0xD04CB3793C4541CB,
        ],
    ];

    fn seeds(grid: &Grid) -> Vec<u64> {
        grid.cells().iter().map(Cell::seed).collect()
    }

    #[test]
    fn seeds_match_the_literals_the_hand_written_binaries_derived() {
        let [buffers, loads] = table4_axes();
        assert_eq!(
            seeds(&Grid::product([buffers.clone(), loads])),
            TABLE4_MEASURED
        );
        assert_eq!(
            seeds(&Grid::product([buffers]).seed_suffix(SEARCH)),
            TABLE4_SEARCHES
        );
        for (prefix, expected) in ARBITRATION.iter().enumerate() {
            let grid = Grid::product([Axis::new("k", 0..4usize), Axis::new("p", 0..2usize)])
                .seed_prefix(prefix as u64);
            assert_eq!(seeds(&grid), expected);
            // Another base reaches the same coordinates.
            assert_eq!(
                grid.cells()[7].seed_from(7),
                sweep::cell_seed(7, &[prefix as u64, 3, 1])
            );
        }
    }

    #[test]
    fn ragged_grid_round_trips() {
        // Table 2's shape: the capacity axis depends on the design.
        let caps = [2usize, 3, 4, 5, 6];
        let grid = Grid::product([
            Axis::new("buffer", ["FIFO", "SAMQ"]),
            Axis::new("capacity_slots", caps),
            Axis::new("traffic", [0.25, 0.5]),
        ])
        .retain(|c| c[0] == 0 || caps[c[1]].is_multiple_of(2))
        .tag("vehicle", "markov");
        assert_eq!(grid.cells().len(), (5 + 3) * 2);

        let results = grid.run_on(2, |c| (c[0], caps[c[1]], c[2]));
        assert_eq!(*results.at(&[1, 2, 1]), (1, 4, 1));
        let rows = results.rows(2);
        assert_eq!(rows.len(), 8);
        assert_eq!(rows[5], (&[1, 0][..], &[(1, 2, 0), (1, 2, 1)][..]));
        assert_eq!(rows[7].0, [1, 4]);
        assert_eq!(results.rows(1)[1].1.len(), 6);

        let mut report = Report::new("t");
        results.report(&mut report, |&(_, cap, _)| {
            Json::obj([("cap", Json::from(cap))])
        });
        assert_eq!(report.cell_count(), 16);
        assert!(report.body().render().contains(
            r#"{"buffer":"SAMQ","capacity_slots":4,"traffic":0.5,"vehicle":"markov","cap":4}"#
        ));
    }

    #[test]
    #[should_panic(expected = "no grid cell at [1, 1, 0]")]
    fn a_retained_out_cell_is_not_addressable() {
        let grid = Grid::product([
            Axis::new("a", [0usize, 1]),
            Axis::new("b", [0usize, 1]),
            Axis::new("c", [0usize]),
        ])
        .retain(|c| c[0] == 0 || c[1] == 0);
        let _ = grid.run_on(1, |_| ()).at(&[1, 1, 0]);
    }

    #[test]
    fn compound_axis_points_carry_every_label() {
        let grid = Grid::product([Axis::compound([
            vec![
                ("offered_load", Json::from(0.5)),
                ("arbiter", Json::from("Smart")),
            ],
            vec![
                ("offered_load", Json::from(0.5)),
                ("arbiter", Json::from("Dumb")),
            ],
        ])]);
        let labels = grid.labels(&grid.cells()[1]);
        assert_eq!(
            Json::cell(labels, Json::Null).render(),
            r#"{"offered_load":0.5,"arbiter":"Dumb","value":null}"#
        );
    }
}
