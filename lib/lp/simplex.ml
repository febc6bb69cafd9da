type result =
  | Optimal of { objective : float; x : float array }
  | Infeasible
  | Unbounded
  | Iteration_limit

type detailed = { objective : float; x : float array; duals : float array }

let eps = 1e-9
let feas_tol = 1e-7

(* A row is stored sparse until it would hold more than [cols /
   dense_ratio] nonzeros, and dense from then on.  A sparse entry costs
   three words (column, value, column-index node) and a dense row one
   word per nonbasic column; a pivot updates a sparse row in time
   proportional to the row's entries plus the pivot row's, a dense row
   in time proportional to the pivot row's alone.  On the LP2 of chains
   at n = 256, m = 16, while sparse rows still kept their zeros, ratios
   4, 8 and 16 had the tableau peak at about 5.2, 5.3 and 5.6 M words,
   the solve took about 1.4, 1 and 0.95 times ratio 8's time, and the
   sparse rows' scans came to 10%, 1.3% and 0.4% of the pivots'
   updates.

   A sparse row stores only nonzeros.  An update that leaves an exact
   0.0, the entering column's entry among them, removes the entry, and
   fill-in appends only nonzero values.  A stored zero would change no
   result: it never passes the ratio test or scales the pivot row, and
   for [x <> 0.0], [z -. x] is [0.0 -. x] for both signed zeros [z].
   All sparse rows share one file ([fidx], [fvals]): a row that outgrows
   its room moves to the end, and the file is compacted in place when
   the end is full, so the space the rows hold follows the nonzeros live
   at once rather than each row's own peak.  The column index lists
   rows, not positions, in chains of nodes from one pool; a gather looks
   the column up in each listed row, so entries may move freely.

   A dense row holds only the nonbasic columns.  In a simplex tableau a
   basic column is a unit column: 1.0 in its own row and 0.0 in every
   other, set when it enters and never updated while it stays basic,
   since the pivot row holds 0.0 there.  So a dense row stores [cols -
   rows] floats, one per slot; [slot_of] maps a variable to its slot
   (-1 while basic) and [var_of_slot] back.  The slots start as the
   nonbasic variables in increasing order, and a pivot hands the
   entering column's slot to the leaving column.  Sparse rows, the
   column index, [rhs], [z1], [z2] and [work] stay indexed by variable.

   The tableau's storage lives outside the OCaml heap.  Each dense row,
   the bulk of a large tableau, is a float64 Bigarray over zeroed memory
   from [calloc] (simplex_stubs.c), which the GC neither owns nor
   counts; the file and the node pool are Bigarrays over [malloc]'d
   memory that grow by [realloc] in place.  {!solve_internal} frees all
   of it when it returns or raises, so the next solve starts with that
   memory back, instead of growing its own tableau beside a dead one
   that the major heap has not collected yet, and a solve leaves the
   heap no garbage but its scratch arrays.  A freed store has length 0,
   so a stray checked access to it raises rather than reading freed
   memory.  The counters [lp.dense_rows.allocated] and
   [lp.dense_rows.released] count the dense rows made and freed. *)
let dense_ratio = 8

(* A position in a row's storage: the entry's index in a sparse row, its
   column's slot in a dense one.  The ratio test's entries pack a row and
   a position as [row lsl pos_bits lor position] in one 63-bit int, so
   ordering entries as integers orders them by row. *)
let pos_bits = 32
let pos_mask = (1 lsl pos_bits) - 1

type dense_row = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

external dense_alloc : int -> dense_row = "suu_lp_dense_alloc"
external dense_free_all : dense_row array -> int = "suu_lp_dense_free_all"
[@@noalloc]

(* [dense_update_rows dvals rows fs count slots ws n slot] sets, for
   each k < [count], [d.{slot} <- 0.0] in the dense row [d =
   dvals.(rows.(k))], then [d.{s} <- d.{s} -. (fs.(k) *. ws.(q))] at
   [s = slots.(q)] for each q < [n], unchecked.  It updates the rows
   four to a pass over [slots] and [ws]. *)
external dense_update_rows :
  dense_row array -> int array -> float array -> int -> int array ->
  float array -> int -> int -> unit
  = "suu_lp_dense_update_rows_byte" "suu_lp_dense_update_rows"
[@@noalloc]

(* The sparse rows' file and the column index's nodes live outside the
   OCaml heap too, in stores from malloc that grow by realloc in place
   ([store_resize]) and are freed by {!release}. *)
type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

external int_alloc : int -> ints = "suu_lp_int_alloc"
external float_alloc : int -> dense_row = "suu_lp_float_alloc"

external store_resize : ('a, 'b, Bigarray.c_layout) Bigarray.Array1.t -> int -> unit
  = "suu_lp_resize"

external store_free : ('a, 'b, Bigarray.c_layout) Bigarray.Array1.t -> unit
  = "suu_lp_store_free"
[@@noalloc]

(* The row of a sparse row's [dvals] slot, and the stores of a tableau
   not yet built: they hold nothing to free. *)
let no_row = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout 0
let no_ints = Bigarray.Array1.create Bigarray.int Bigarray.c_layout 0

let allocated = Suu_obs.Registry.memo_counter "lp.dense_rows.allocated"
let released = Suu_obs.Registry.memo_counter "lp.dense_rows.released"

type tableau = {
  rows : int;
  cols : int; (* number of variable columns *)
  dense_above : int; (* a row holding more entries turns dense *)
  dense : bool array;
  dvals : dense_row array;
  (* a dense row's entries by slot, one per nonbasic column; its own
     basic column is an implicit 1.0 and every other basic column an
     implicit 0.0.  Outside the OCaml heap and freed by {!release};
     [no_row] for a sparse row *)
  mutable fidx : ints;
  mutable fvals : dense_row;
  (* the sparse rows' file: row r stores len.(r) entries, columns in
     fidx and values in fvals from position start.(r) on, after a
     header [-(r + 1)] in fidx, and has room up to start.(r) +
     room.(r).  Every stored value is nonzero: an update that leaves 0.0
     removes the entry.  A row that outgrows its room moves to the end
     of the file, leaving a gap; a dense row keeps no room.  Outside the
     OCaml heap and freed by {!release}; [no_ints] and [no_row] until
     {!build} *)
  start : int array;
  room : int array;
  len : int array;
  mutable fend : int; (* positions from fend on are free *)
  rhs : float array; (* right-hand side of each row *)
  col_head : int array;
  col_tail : int array;
  (* column index: column j lists rows in a chain of nodes from
     col_head.(j) to col_tail.(j) (-1 when empty), in the order they
     were listed.  Every sparse row that stores j is listed; a row may
     also be listed twice, or after it lost j or turned dense, until the
     column is next gathered or the index rebuilt. *)
  mutable nodes : ints;
  (* the nodes of every column's chain: node n packs a listed row and
     the next node (-1 for none) as [row lsl pos_bits lor (next + 1)].
     Outside the OCaml heap and freed by {!release} *)
  mutable free : int; (* the unused nodes, chained as the columns' are *)
  mutable stored : int; (* entries stored in sparse rows *)
  mutable listed : int; (* nodes in use *)
  seen : int array; (* gather scratch, length rows: per-row stamps *)
  mutable dense_rows : int array;
  (* the dense rows in increasing order, the first n_dense in use *)
  mutable n_dense : int;
  basis : int array; (* basic column of each row *)
  slot_of : int array; (* length cols: a column's slot, -1 while basic *)
  var_of_slot : int array; (* length cols - rows: the column in a slot *)
  z1 : float array; (* phase-1 reduced costs, length cols + 1 *)
  z2 : float array; (* phase-2 reduced costs, length cols + 1 *)
  nstruct : int; (* structural variables occupy columns [0, nstruct) *)
  first_artificial : int; (* artificial columns occupy [first_artificial, cols) *)
  dual_of_row : (int * float) array;
  (* per user constraint: the standardized row's slack/surplus/artificial
     column and the sign such that the user-facing dual is
     sign * z2.(column) at optimality *)
  work : float array;
  (* length cols: the scaled pivot row scattered during a pivot, all
     zero between pivots *)
  mark : int array; (* length cols: per-target-row stamps *)
  mutable stamp : int;
  nz_cols : int array;
  (* pivot scratch, length cols: the nonzero columns of the scaled pivot
     row *)
  nz_ents : int array;
  (* pivot scratch, length rows: the packed entries of the entering
     column whose value is nonzero, in increasing row order; the first
     [n_nz_ents] are in use *)
  mutable n_nz_ents : int;
  dense_ents : int array; (* gather scratch, length rows *)
  batch_rows : int array;
  batch_f : float array;
  (* pivot scratch, length rows: the dense target rows of a pivot and
     their multipliers, handed to {!dense_update_rows} together *)
  nz_slots : int array;
  nz_work : float array;
  (* pivot scratch, length cols - rows: the scaled pivot row's nonzero
     slots and their values *)
}

(* [a], or a copy of its first [len] entries, with room for [need]. *)
let with_room a len need fill =
  if need <= Array.length a then a
  else begin
    let b = Array.make (max need (2 * Array.length a)) fill in
    Array.blit a 0 b 0 len;
    b
  end

(* Give row [r] a dense row of zeros and list it among the dense rows.
   The new row is in [dvals] before anything that can raise, so
   {!release} finds it. *)
let make_dense t r =
  let c = allocated () in
  let d = dense_alloc (Array.length t.var_of_slot) in
  t.dvals.(r) <- d;
  Suu_obs.Counter.incr c;
  t.dense.(r) <- true;
  t.dense_rows <- with_room t.dense_rows t.n_dense (t.n_dense + 1) 0;
  let i = ref t.n_dense in
  while !i > 0 && t.dense_rows.(!i - 1) > r do
    t.dense_rows.(!i) <- t.dense_rows.(!i - 1);
    decr i
  done;
  t.dense_rows.(!i) <- r;
  t.n_dense <- t.n_dense + 1

(* Move the sparse row [r]'s entries at nonbasic columns into a dense
   row; those at basic columns are its implicit 1.0 and 0.0s. *)
let densify t r =
  make_dense t r;
  let d = t.dvals.(r) and base = t.start.(r) in
  for k = base to base + t.len.(r) - 1 do
    let s = t.slot_of.(t.fidx.{k}) in
    if s >= 0 then d.{s} <- t.fvals.{k}
  done;
  t.stored <- t.stored - t.len.(r);
  t.room.(r) <- 0;
  t.len.(r) <- 0

(* Free [t]'s storage outside the heap: the file and the node pool,
   then every dense row. *)
let release t =
  store_free t.fidx;
  store_free t.fvals;
  store_free t.nodes;
  let c = released () in
  Suu_obs.Counter.add c (dense_free_all t.dvals)

(* The value at position [k] of row [r]. *)
let[@inline] entry t r k =
  if t.dense.(r) then t.dvals.(r).{k} else t.fvals.{t.start.(r) + k}

(* Move every sparse row, in file order, to the front of the file with
   no room to spare.  No row moves past its own start.  The scan finds
   each row by its header, the position before its start, which holds
   [-(r + 1)] for row [r]: a header whose row is dense or starts
   elsewhere is stale, and every other position outside a row's room
   holds stale or never-written values, which may look like headers of
   no row. *)
let compact t =
  let fidx = t.fidx and fvals = t.fvals in
  let p = ref 0 and pos = ref 0 in
  while !p < t.fend do
    let h = fidx.{!p} in
    let r = -h - 1 in
    if r >= 0 && r < t.rows && t.start.(r) = !p + 1 && not t.dense.(r)
    then begin
      let l = t.len.(r) in
      fidx.{!pos} <- h;
      for k = 1 to l do
        fidx.{!pos + k} <- fidx.{!p + k};
        fvals.{!pos + k} <- fvals.{!p + k}
      done;
      p := !p + 1 + t.room.(r);
      t.start.(r) <- !pos + 1;
      t.room.(r) <- l;
      pos := !pos + 1 + l
    end
    else incr p
  done;
  t.fend <- !pos

(* Give the sparse row [r] room for [extra] more entries: if it has too
   little, move it to the end of the file with room for twice its
   entries, or more if [extra] needs it.  When the end has too little
   space, the file is compacted first, and grows to three times what
   its rows and the moved row's room then fill if that leaves it less
   than half free. *)
let reserve t r extra =
  let len = t.len.(r) in
  if len + extra > t.room.(r) then begin
    let need = max (len + extra) (2 * len) in
    if t.fend + 1 + need > Bigarray.Array1.dim t.fidx then begin
      compact t;
      let live = t.fend + 1 + need in
      if 2 * live > Bigarray.Array1.dim t.fidx then begin
        store_resize t.fidx (3 * live);
        store_resize t.fvals (3 * live)
      end
    end;
    let fidx = t.fidx and fvals = t.fvals and s = t.fend + 1 in
    let base = t.start.(r) in
    fidx.{s - 1} <- -(r + 1);
    for k = 0 to len - 1 do
      fidx.{s + k} <- fidx.{base + k};
      fvals.{s + k} <- fvals.{base + k}
    done;
    t.start.(r) <- s;
    t.room.(r) <- need;
    t.fend <- s + need
  end

let[@inline] node_row t n = t.nodes.{n} lsr pos_bits
let[@inline] node_next t n = (t.nodes.{n} land pos_mask) - 1
let[@inline] set_node t n r next = t.nodes.{n} <- (r lsl pos_bits) lor (next + 1)

(* Put node [n] back among the unused nodes. *)
let[@inline] free_node t n =
  set_node t n 0 t.free;
  t.free <- n;
  t.listed <- t.listed - 1

(* Chain nodes [lo, hi) in order, the last to [next]. *)
let chain_nodes t lo hi next =
  for n = lo to hi - 1 do
    set_node t n 0 (if n + 1 < hi then n + 1 else next)
  done

(* Add [n] unused nodes to the pool. *)
let grow_pool t n =
  let old = Bigarray.Array1.dim t.nodes in
  store_resize t.nodes (old + n);
  chain_nodes t old (old + n) t.free;
  t.free <- old

(* Append row [r] to column [j]'s chain, doubling the node pool when no
   node is free. *)
let list_row t j r =
  if t.free < 0 then grow_pool t (max 64 (Bigarray.Array1.dim t.nodes));
  let n = t.free in
  t.free <- node_next t n;
  set_node t n r (-1);
  let tail = t.col_tail.(j) in
  if tail < 0 then t.col_head.(j) <- n
  else set_node t tail (node_row t tail) n;
  t.col_tail.(j) <- n;
  t.listed <- t.listed + 1

(* Store [v], nonzero, at column [j] of the sparse row [r], which must
   not store [j] yet and must have room, and list [r] in column [j]'s
   index. *)
let[@inline] append t r j v =
  let k = t.len.(r) in
  t.fidx.{t.start.(r) + k} <- j;
  t.fvals.{t.start.(r) + k} <- v;
  t.len.(r) <- k + 1;
  t.stored <- t.stored + 1;
  list_row t j r

(* Rebuild the column index from the sparse rows: each column lists
   exactly the rows that store it, in increasing order.  {!pivot} calls
   it once more nodes are in use than twice the stored entries plus one
   per row, so its cost, one pass over the pool and the stored entries,
   is paid for by the removals that left the nodes it frees stale. *)
let reindex t =
  Array.fill t.col_head 0 t.cols (-1);
  Array.fill t.col_tail 0 t.cols (-1);
  let cap = Bigarray.Array1.dim t.nodes in
  chain_nodes t 0 cap (-1);
  t.free <- (if cap > 0 then 0 else -1);
  t.listed <- 0;
  for r = 0 to t.rows - 1 do
    for k = t.start.(r) to t.start.(r) + t.len.(r) - 1 do
      list_row t t.fidx.{k} r
    done
  done

(* The position of column [j] in the sparse row [r], or -1. *)
let position t r j =
  let base = t.start.(r) and len = t.len.(r) in
  let k = ref 0 in
  while !k < len && Bigarray.Array1.unsafe_get t.fidx (base + !k) <> j do
    incr k
  done;
  if !k < len then !k else -1

(* A constraint's sense once its right-hand side is made nonnegative. *)
let standard_sense sense rhs =
  if rhs < 0.0 then
    match sense with
    | Problem.Le -> Problem.Ge
    | Problem.Ge -> Problem.Le
    | Problem.Eq -> Problem.Eq
  else sense

(* Lay out columns as [structural | slack/surplus | artificial]: a
   tableau of [problem]'s shape, with no rows yet.  The initial basis is
   a slack for each <= row and an artificial for each >= and = row, so
   the slots go to the structural columns, then the >= rows' surplus
   columns. *)
let layout problem =
  let nstruct = Problem.num_vars problem in
  let nrows = Problem.num_constraints problem in
  let senses = Array.make nrows Problem.Le and r = ref 0 in
  Problem.iter_constraints problem (fun _ sense rhs ->
      senses.(!r) <- standard_sense sense rhs;
      incr r);
  (* Count extra columns. *)
  let n_slack = ref 0 and n_art = ref 0 in
  Array.iter
    (function
      | Problem.Le -> incr n_slack
      | Problem.Ge -> incr n_slack; incr n_art
      | Problem.Eq -> incr n_art)
    senses;
  let first_artificial = nstruct + !n_slack in
  let cols = first_artificial + !n_art in
  let slot_of = Array.make cols (-1) in
  let var_of_slot = Array.make (cols - nrows) 0 in
  let n = ref 0 in
  let give v =
    slot_of.(v) <- !n;
    var_of_slot.(!n) <- v;
    incr n
  in
  for v = 0 to nstruct - 1 do
    give v
  done;
  let slack = ref nstruct in
  Array.iter
    (function
      | Problem.Le -> incr slack
      | Problem.Ge -> give !slack; incr slack
      | Problem.Eq -> ())
    senses;
  { rows = nrows; cols; dense_above = cols / dense_ratio;
    dense = Array.make nrows false; dvals = Array.make nrows no_row;
    fidx = no_ints; fvals = no_row; start = Array.make nrows 0;
    room = Array.make nrows 0; len = Array.make nrows 0; fend = 0;
    rhs = Array.make nrows 0.0; col_head = Array.make cols (-1);
    col_tail = Array.make cols (-1); nodes = no_ints; free = -1; stored = 0;
    listed = 0; seen = Array.make nrows (-1); dense_rows = [||];
    n_dense = 0;
    basis = Array.make nrows (-1); slot_of; var_of_slot;
    z1 = Array.make (cols + 1) 0.0;
    z2 = Array.make (cols + 1) 0.0; nstruct; first_artificial;
    dual_of_row = Array.make nrows (0, 0.0); work = Array.make cols 0.0;
    mark = Array.make cols (-1); stamp = 0; nz_cols = Array.make cols 0;
    nz_ents = Array.make nrows 0; n_nz_ents = 0;
    dense_ents = Array.make nrows 0; batch_rows = Array.make nrows 0;
    batch_f = Array.make nrows 0.0; nz_slots = Array.make !n 0;
    nz_work = Array.make !n 0.0 }

(* Fill the rows of [t], laid out for [problem], and install the initial
   basis: slack for <= rows, artificial for >= and = rows.  A row with
   more than [dense_above] entries is written dense from the start. *)
let build t problem =
  (* Room for the rows' entries as built, at most two beyond their terms
     and a header each, in a file three times that, as {!reserve} keeps
     it, and a node for each entry. *)
  let entries = ref 0 in
  Problem.iter_constraints problem (fun terms _ _ ->
      entries := !entries + Array.length terms + 2);
  t.fidx <- int_alloc (3 * (!entries + t.rows));
  t.fvals <- float_alloc (3 * (!entries + t.rows));
  t.nodes <- int_alloc 0;
  grow_pool t !entries;
  let cols = t.cols and basis = t.basis and z1 = t.z1 in
  (* The z rows store reduced costs in [0, cols) and minus the current
     objective value at index [cols]. *)
  Array.blit (Problem.objective problem) 0 t.z2 0 t.nstruct;
  (* Phase-1 reduced costs: cost 1 on every artificial column, then
     price out the initial (artificial) basics by subtracting their
     rows, in row order, as each is built. *)
  for j = t.first_artificial to cols - 1 do
    z1.(j) <- 1.0
  done;
  let slack_next = ref t.nstruct and art_next = ref t.first_artificial in
  let r = ref 0 in
  Problem.iter_constraints problem (fun terms sense rhs ->
      let row = !r in
      let flip = rhs < 0.0 in
      (* Sum repeated terms in [work] from 0.0, as a dense row would, and
         store the distinct columns whose sum is nonzero. *)
      let n = ref 0 in
      let put (v, c) =
        let c = if flip then -.c else c in
        if t.mark.(v) <> row then begin
          t.mark.(v) <- row;
          t.nz_cols.(!n) <- v;
          incr n;
          t.work.(v) <- 0.0 +. c
        end
        else t.work.(v) <- t.work.(v) +. c
      in
      Array.iter put terms;
      let sense = standard_sense sense rhs in
      (* The row's entries: its nonzero sums, then its slack, surplus or
         artificial columns. *)
      let entries = ref (match sense with Problem.Ge -> 2 | _ -> 1) in
      for k = 0 to !n - 1 do
        if t.work.(t.nz_cols.(k)) <> 0.0 then incr entries
      done;
      let dense = !entries > t.dense_above in
      if dense then make_dense t row
      else reserve t row !entries;
      (* A dense row skips its own basic column, an implicit 1.0. *)
      let store j v =
        if not dense then append t row j v
        else if t.slot_of.(j) >= 0 then t.dvals.(row).{t.slot_of.(j)} <- v
      in
      for k = 0 to !n - 1 do
        let v = t.nz_cols.(k) in
        if t.work.(v) <> 0.0 then store v t.work.(v);
        t.work.(v) <- 0.0
      done;
      t.rhs.(row) <- (if flip then -.rhs else rhs);
      (* Record where this row's dual can be read off after phase 2:
         the reduced cost of a slack (+1) column is -y, of a surplus
         (-1) column +y, of a zero-cost artificial -y; a flipped row
         negates the user-facing dual again. *)
      let fsign = if flip then -1.0 else 1.0 in
      (match sense with
      | Problem.Le ->
          let s = !slack_next in
          incr slack_next;
          store s 1.0;
          basis.(row) <- s;
          t.dual_of_row.(row) <- (s, -.fsign)
      | Problem.Ge ->
          let s = !slack_next in
          incr slack_next;
          store s (-1.0);
          let art = !art_next in
          incr art_next;
          store art 1.0;
          basis.(row) <- art;
          t.dual_of_row.(row) <- (s, fsign)
      | Problem.Eq ->
          let art = !art_next in
          incr art_next;
          store art 1.0;
          basis.(row) <- art;
          t.dual_of_row.(row) <- (art, -.fsign));
      if basis.(row) >= t.first_artificial then begin
        if dense then begin
          (* Each column once, as the sparse entries are; subtracting a
             zero column leaves z1 as it is. *)
          let d = t.dvals.(row) and b = basis.(row) in
          for k = 0 to Bigarray.Array1.dim d - 1 do
            let j = t.var_of_slot.(k) in
            z1.(j) <- z1.(j) -. d.{k}
          done;
          z1.(b) <- z1.(b) -. 1.0
        end
        else
          for k = t.start.(row) to t.start.(row) + t.len.(row) - 1 do
            let j = t.fidx.{k} in
            z1.(j) <- z1.(j) -. t.fvals.{k}
          done;
        z1.(cols) <- z1.(cols) -. t.rhs.(row)
      end;
      incr r);
  Array.fill t.mark 0 cols (-1)

(* Record in [nz_ents] the entries of column [col] with a nonzero value,
   in increasing row order, which the ratio test's tie-break needs.  The
   column index lists a column's sparse rows in the order they gained
   it; each is searched for [col], and the index keeps only the sparse
   rows that store it, once each.  Those entries are sorted when out of
   order, then merged with the dense rows' entries. *)
let gather_rows t col =
  let nz = t.nz_ents in
  t.stamp <- t.stamp + 1;
  let stamp = t.stamp and a = ref 0 in
  let prev = ref (-1) and n = ref t.col_head.(col) in
  while !n >= 0 do
    let node = !n in
    let r = node_row t node in
    n := node_next t node;
    let k =
      if t.dense.(r) || t.seen.(r) = stamp then -1 else position t r col
    in
    if k >= 0 then begin
      t.seen.(r) <- stamp;
      nz.(!a) <- (r lsl pos_bits) lor k;
      incr a;
      prev := node
    end
    else begin
      if !prev < 0 then t.col_head.(col) <- !n
      else set_node t !prev (node_row t !prev) !n;
      free_node t node
    end
  done;
  t.col_tail.(col) <- !prev;
  let a = !a in
  let sorted = ref true in
  for i = 1 to a - 1 do
    if nz.(i - 1) > nz.(i) then sorted := false
  done;
  if not !sorted then begin
    let s = Array.sub nz 0 a in
    Array.sort Int.compare s;
    Array.blit s 0 nz 0 a
  end;
  let d = t.dense_ents and b = ref 0 and slot = t.slot_of.(col) in
  for i = 0 to t.n_dense - 1 do
    let r = t.dense_rows.(i) in
    if Float.abs t.dvals.(r).{slot} > 0.0 then begin
      d.(!b) <- (r lsl pos_bits) lor slot;
      incr b
    end
  done;
  (* Merge from the back: [nz] holds both runs' [a + b] entries. *)
  let i = ref (a - 1) and j = ref (!b - 1) in
  for k = a + !b - 1 downto 0 do
    if !j < 0 || (!i >= 0 && nz.(!i) > d.(!j)) then begin
      nz.(k) <- nz.(!i);
      decr i
    end
    else begin
      nz.(k) <- d.(!j);
      decr j
    end
  done;
  t.n_nz_ents <- a + !b

(* Pivot on ([row], [col]), eliminating [col] from the rows listed in
   [nz_ents] (which must be those with a nonzero in [col]) and from both
   z rows.  The scaled pivot row is scattered into [work], and its
   nonzero columns listed in [nz_cols]; the leaving column, whose 1.0
   scales to [1.0 *. inv], then takes the entering column's slot.  A
   dense target row is cleared at that slot, where it held [f], and
   updated at the pivot row's nonzero slots, after the sparse ones and
   four rows to a pass ({!dense_update_rows}); a sparse one at its
   stored entries there, after which it gains, from 0.0, the nonzero
   columns it lacks (turning dense first if they would take it over
   [dense_above]).  A sparse row keeps only its nonzero results, and
   loses the entering column's entry.  Rows are independent, so their
   order changes no entry.  So every entry a full sweep would change
   with a nonzero [f *. a] gets the same [x -. f *. a], where the
   cleared slot's [x] is the 0.0 the sweep held at the basic leaving
   column, and a skipped update is [x -. f *. 0.0], which leaves [x]
   unchanged up to the sign of a zero.  Then the entering column's
   chain is cut back to the sparse pivot row, the only row that stores
   it, and the column index is rebuilt once its chains hold more than
   twice the stored entries plus one node per row. *)
let pivot t ~row ~col =
  let work = t.work and nz = t.nz_cols and mark = t.mark in
  let slot = t.slot_of.(col) and leaving = t.basis.(row) in
  let nnz = ref 0 and nnz_slots = ref 0 in
  let inv =
    if t.dense.(row) then begin
      (* Scaled slot by slot, listing the nonzero columns in slot order
         (the leaving column last), which takes no pass over all the
         columns, and the nonzero slots in increasing order for
         {!dense_update_rows}, with [slot] already holding the leaving
         column's value. *)
      let d = t.dvals.(row) in
      let inv = 1.0 /. d.{slot} in
      for k = 0 to Bigarray.Array1.dim d - 1 do
        let v = d.{k} *. inv in
        d.{k} <- v;
        if v <> 0.0 then begin
          let j = t.var_of_slot.(k) in
          work.(j) <- v;
          nz.(!nnz) <- j;
          t.nz_slots.(!nnz) <- k;
          t.nz_work.(!nnz) <- (if k = slot then 1.0 *. inv else v);
          incr nnz
        end
      done;
      d.{slot} <- 1.0 *. inv;
      work.(leaving) <- 1.0 *. inv;
      nnz_slots := !nnz;
      nz.(!nnz) <- leaving;
      incr nnz;
      inv
    end
    else begin
      (* Scaled in place, keeping only the nonzero products. *)
      let fidx = t.fidx and fvals = t.fvals and base = t.start.(row) in
      let kcol = position t row col in
      let inv = 1.0 /. fvals.{base + kcol} in
      for k = 0 to t.len.(row) - 1 do
        let j = fidx.{base + k} and v = fvals.{base + k} *. inv in
        if v <> 0.0 then begin
          fidx.{base + !nnz} <- j;
          fvals.{base + !nnz} <- (if k = kcol then 1.0 else v);
          work.(j) <- v;
          nz.(!nnz) <- j;
          incr nnz
        end
      done;
      t.stored <- t.stored - t.len.(row) + !nnz;
      t.len.(row) <- !nnz;
      inv
    end
  in
  t.slot_of.(leaving) <- slot;
  t.var_of_slot.(slot) <- leaving;
  t.slot_of.(col) <- -1;
  work.(col) <- 1.0;
  let nnz = !nnz in
  let prhs = t.rhs.(row) *. inv in
  t.rhs.(row) <- prhs;
  (* Unchecked reads and writes: every entry of [nz] and every stored
     column is below [cols], the length of [work] and [mark], and [nnz
     <= cols].  Dense target rows are listed here and updated together
     after the loop. *)
  let batched = ref 0 in
  for i = 0 to t.n_nz_ents - 1 do
    let e = t.nz_ents.(i) in
    let r = e lsr pos_bits in
    if r <> row then begin
      let kc = e land pos_mask in
      (* Nonzero: the gather kept only nonzero entries. *)
      let f = entry t r kc in
      if t.dense.(r) then begin
        t.batch_rows.(!batched) <- r;
        t.batch_f.(!batched) <- f;
        incr batched
      end
      else begin
        (* Updated in place, keeping the nonzero results; the entering
           column's entry leaves the row. *)
        let fidx = t.fidx and fvals = t.fvals and base = t.start.(r) in
        t.stamp <- t.stamp + 1;
        let stamp = t.stamp in
        let matched = ref 0 and kept = ref base in
        for k = base to base + t.len.(r) - 1 do
          let j = Bigarray.Array1.unsafe_get fidx k in
          let a = Array.unsafe_get work j in
          let v = Bigarray.Array1.unsafe_get fvals k in
          let v =
            if a <> 0.0 then begin
              Array.unsafe_set mark j stamp;
              incr matched;
              v -. (f *. a)
            end
            else v
          in
          if v <> 0.0 && j <> col then begin
            Bigarray.Array1.unsafe_set fidx !kept j;
            Bigarray.Array1.unsafe_set fvals !kept v;
            incr kept
          end
        done;
        let kept = !kept - base in
        t.stored <- t.stored - t.len.(r) + kept;
        t.len.(r) <- kept;
        if kept + nnz - !matched > t.dense_above then begin
          densify t r;
          (* The row stores [col], so every column it lacks has a
             slot. *)
          let d = t.dvals.(r) in
          for q = 0 to nnz - 1 do
            let j = Array.unsafe_get nz q in
            if Array.unsafe_get mark j <> stamp then
              d.{t.slot_of.(j)} <- 0.0 -. (f *. Array.unsafe_get work j)
          done
        end
        else begin
          reserve t r (nnz - !matched);
          for q = 0 to nnz - 1 do
            let j = Array.unsafe_get nz q in
            if Array.unsafe_get mark j <> stamp then begin
              let v = 0.0 -. (f *. Array.unsafe_get work j) in
              if v <> 0.0 then append t r j v
            end
          done
        end
      end;
      if prhs <> 0.0 then t.rhs.(r) <- t.rhs.(r) -. (f *. prhs)
    end
  done;
  if !batched > 0 then begin
    if not t.dense.(row) then
      (* A sparse pivot row's nonzero slots, in its stored order. *)
      for q = 0 to nnz - 1 do
        let j = nz.(q) in
        let s = t.slot_of.(j) in
        if s >= 0 then begin
          t.nz_slots.(!nnz_slots) <- s;
          t.nz_work.(!nnz_slots) <- work.(j);
          incr nnz_slots
        end
      done;
    dense_update_rows t.dvals t.batch_rows t.batch_f !batched t.nz_slots
      t.nz_work !nnz_slots slot
  end;
  let eliminate z =
    let f = z.(col) in
    if Float.abs f > 0.0 then begin
      for q = 0 to nnz - 1 do
        let j = nz.(q) in
        z.(j) <- z.(j) -. (f *. work.(j))
      done;
      if prhs <> 0.0 then z.(t.cols) <- z.(t.cols) -. (f *. prhs);
      z.(col) <- 0.0
    end
  in
  eliminate t.z1;
  eliminate t.z2;
  for q = 0 to nnz - 1 do
    work.(nz.(q)) <- 0.0
  done;
  work.(col) <- 0.0;
  t.basis.(row) <- col;
  (* [col] is now a unit column: stored, as 1.0, only in a sparse pivot
     row. *)
  let n = ref t.col_head.(col) in
  while !n >= 0 do
    let node = !n in
    n := node_next t node;
    free_node t node
  done;
  t.col_head.(col) <- -1;
  t.col_tail.(col) <- -1;
  if not t.dense.(row) then list_row t col row;
  if t.listed > (2 * t.stored) + t.rows then reindex t

(* Choose the entering column: Dantzig (most negative reduced cost) unless
   [bland], then the lowest eligible index.  [limit] excludes artificial
   columns during phase 2. *)
let entering z ~bland ~limit =
  if bland then begin
    let found = ref (-1) in
    (try
       for j = 0 to limit - 1 do
         if z.(j) < -.eps then begin
           found := j;
           raise Exit
         end
       done
     with Exit -> ());
    !found
  end
  else begin
    let best = ref (-1) and best_val = ref (-.eps) in
    for j = 0 to limit - 1 do
      if z.(j) < !best_val then begin
        best_val := z.(j);
        best := j
      end
    done;
    !best
  end

(* Ratio test; ties broken toward the smallest basic column to limit
   cycling.  Returns -1 when the column is unbounded.  Leaves the
   entries with a nonzero in [col] in [nz_ents] for {!pivot}; only their
   rows can pass the test. *)
let leaving t col =
  gather_rows t col;
  let best = ref (-1) and best_ratio = ref infinity in
  for i = 0 to t.n_nz_ents - 1 do
    let e = t.nz_ents.(i) in
    let r = e lsr pos_bits in
    let arc = entry t r (e land pos_mask) in
    if arc > eps then begin
      let ratio = t.rhs.(r) /. arc in
      if
        ratio < !best_ratio -. eps
        || (ratio < !best_ratio +. eps
            && !best >= 0
            && t.basis.(r) < t.basis.(!best))
      then begin
        best_ratio := ratio;
        best := r
      end
    end
  done;
  !best

type phase_outcome = Done | Unbounded_col | Out_of_iters

let run_phase t z ~limit ~iters_left ~bland_after =
  let iters = ref 0 in
  let rec loop () =
    if !iters >= iters_left then Out_of_iters
    else begin
      let bland = !iters > bland_after in
      let col = entering z ~bland ~limit in
      if col < 0 then Done
      else
        let row = leaving t col in
        if row < 0 then Unbounded_col
        else begin
          pivot t ~row ~col;
          incr iters;
          loop ()
        end
    end
  in
  let outcome = loop () in
  (outcome, !iters)

(* After phase 1, pivot zero-level artificial basics out on any usable
   non-artificial column; rows that admit none are redundant and keep their
   artificial basic at level zero (artificials never re-enter because
   phase 2 prices only columns below [first_artificial]). *)
let expel_artificials t =
  for r = 0 to t.rows - 1 do
    if t.basis.(r) >= t.first_artificial then begin
      (* The lowest usable column; a sparse row stores its entries
         unsorted, a dense one by slot. *)
      let col = ref t.first_artificial in
      if t.dense.(r) then begin
        let d = t.dvals.(r) in
        for k = 0 to Bigarray.Array1.dim d - 1 do
          let j = t.var_of_slot.(k) in
          if j < !col && Float.abs d.{k} > 1e-7 then col := j
        done
      end
      else
        for k = t.start.(r) to t.start.(r) + t.len.(r) - 1 do
          let j = t.fidx.{k} in
          if j < !col && Float.abs t.fvals.{k} > 1e-7 then col := j
        done;
      if !col < t.first_artificial then begin
        gather_rows t !col;
        pivot t ~row:r ~col:!col
      end
    end
  done

(* Solve on the tableau [t], laid out for [problem]. *)
let solve_tableau t ?max_iters problem =
  build t problem;
  let default_budget = max 100_000 (50 * (t.rows + t.cols)) in
  let budget = match max_iters with Some b -> b | None -> default_budget in
  let bland_after = 10 * (t.rows + t.cols) in
  let phase1_needed = t.first_artificial < t.cols in
  let after_phase1 =
    if not phase1_needed then Some budget
    else begin
      match run_phase t t.z1 ~limit:t.cols ~iters_left:budget ~bland_after with
      | Done, used ->
          let phase1_obj = -.t.z1.(t.cols) in
          if phase1_obj > feas_tol then None
          else begin
            expel_artificials t;
            Some (budget - used)
          end
      | Unbounded_col, _ ->
          (* Phase 1 minimizes a sum of nonnegative variables: it cannot be
             unbounded on exact arithmetic; treat as numerical failure. *)
          None
      | Out_of_iters, _ -> Some 0
    end
  in
  match after_phase1 with
  | None -> (Infeasible, None)
  | Some 0 -> (Iteration_limit, None)
  | Some left -> (
      match
        run_phase t t.z2 ~limit:t.first_artificial ~iters_left:left
          ~bland_after
      with
      | Done, _ ->
          let x = Array.make t.nstruct 0.0 in
          for r = 0 to t.rows - 1 do
            let b = t.basis.(r) in
            if b < t.nstruct then x.(b) <- t.rhs.(r)
          done;
          (* Clamp tiny negatives produced by roundoff. *)
          for v = 0 to t.nstruct - 1 do
            if x.(v) < 0.0 && x.(v) > -.feas_tol then x.(v) <- 0.0
          done;
          let duals =
            Array.map
              (fun (col, sign) -> sign *. t.z2.(col))
              t.dual_of_row
          in
          (Optimal { objective = Problem.objective_value problem x; x },
           Some duals)
      | Unbounded_col, _ -> (Unbounded, None)
      | Out_of_iters, _ -> (Iteration_limit, None))

let solve_internal ?max_iters problem =
  let t = layout problem in
  Fun.protect
    ~finally:(fun () -> release t)
    (fun () -> solve_tableau t ?max_iters problem)

let solve ?max_iters problem = fst (solve_internal ?max_iters problem)

let solve_detailed ?max_iters problem =
  match solve_internal ?max_iters problem with
  | Optimal { objective; x }, Some duals -> Some { objective; x; duals }
  | _ -> None

let solve_exn ?max_iters problem =
  match solve ?max_iters problem with
  | Optimal { objective; x } -> (objective, x)
  | Infeasible -> failwith (Problem.name problem ^ ": infeasible")
  | Unbounded -> failwith (Problem.name problem ^ ": unbounded")
  | Iteration_limit -> failwith (Problem.name problem ^ ": iteration limit")
