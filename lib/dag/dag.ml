type t = {
  n : int;
  pred : int list array; (* ascending *)
  succ : int list array; (* ascending *)
  nedges : int;
  (* Packed CSR mirrors of [pred]/[succ] for allocation-free traversal on
     hot paths (the simulator's incremental eligibility updates).  Node
     [j]'s neighbours are [tgt.(off.(j)) .. tgt.(off.(j+1) - 1)], in the
     same ascending order as the lists. *)
  pred_off : int array; (* n + 1 offsets *)
  pred_tgt : int array;
  succ_off : int array;
  succ_tgt : int array;
}

(* Build the CSR arrays from ascending adjacency lists. *)
let csr_of_lists n adj nedges =
  let off = Array.make (n + 1) 0 in
  let tgt = Array.make nedges 0 in
  let k = ref 0 in
  for j = 0 to n - 1 do
    off.(j) <- !k;
    List.iter
      (fun v ->
        tgt.(!k) <- v;
        incr k)
      adj.(j)
  done;
  off.(n) <- !k;
  (off, tgt)

let make_internal n pred succ nedges =
  let pred_off, pred_tgt = csr_of_lists n pred nedges in
  let succ_off, succ_tgt = csr_of_lists n succ nedges in
  { n; pred; succ; nedges; pred_off; pred_tgt; succ_off; succ_tgt }

let empty n =
  if n < 0 then invalid_arg "Dag.empty: negative size";
  make_internal n (Array.make (max n 1) []) (Array.make (max n 1) []) 0

let size t = t.n
let num_edges t = t.nedges
let preds t j = t.pred.(j)
let succs t j = t.succ.(j)
let in_degree t j = t.pred_off.(j + 1) - t.pred_off.(j)
let out_degree t j = t.succ_off.(j + 1) - t.succ_off.(j)
let is_edgeless t = t.nedges = 0

let pred_csr t = (t.pred_off, t.pred_tgt)
let succ_csr t = (t.succ_off, t.succ_tgt)

let iter_succs t j f =
  for k = t.succ_off.(j) to t.succ_off.(j + 1) - 1 do
    f t.succ_tgt.(k)
  done

let iter_preds t j f =
  for k = t.pred_off.(j) to t.pred_off.(j + 1) - 1 do
    f t.pred_tgt.(k)
  done

let edges t =
  let acc = ref [] in
  for a = t.n - 1 downto 0 do
    List.iter (fun b -> acc := (a, b) :: !acc) (List.rev t.succ.(a))
  done;
  !acc

let sources t =
  let acc = ref [] in
  for j = t.n - 1 downto 0 do
    if t.pred.(j) = [] then acc := j :: !acc
  done;
  !acc

(* Kahn's algorithm; raises on cycles.  Smallest index first for
   determinism (a simple priority selection over a boolean frontier). *)
let topo_exn n pred succ =
  let indeg = Array.map List.length pred in
  let order = Array.make n 0 in
  let module H = Set.Make (Int) in
  let frontier = ref H.empty in
  for j = 0 to n - 1 do
    if indeg.(j) = 0 then frontier := H.add j !frontier
  done;
  let k = ref 0 in
  while not (H.is_empty !frontier) do
    let j = H.min_elt !frontier in
    frontier := H.remove j !frontier;
    order.(!k) <- j;
    incr k;
    List.iter
      (fun b ->
        indeg.(b) <- indeg.(b) - 1;
        if indeg.(b) = 0 then frontier := H.add b !frontier)
      succ.(j)
  done;
  if !k < n then invalid_arg "Dag.of_edges: cycle detected";
  order

let of_edges ~n edge_list =
  if n < 0 then invalid_arg "Dag.of_edges: negative size";
  let seen = Hashtbl.create (List.length edge_list) in
  let pred = Array.make (max n 1) [] in
  let succ = Array.make (max n 1) [] in
  let count = ref 0 in
  List.iter
    (fun (a, b) ->
      if a < 0 || a >= n || b < 0 || b >= n then
        invalid_arg "Dag.of_edges: node out of range";
      if a = b then invalid_arg "Dag.of_edges: self-loop";
      if not (Hashtbl.mem seen (a, b)) then begin
        Hashtbl.add seen (a, b) ();
        pred.(b) <- a :: pred.(b);
        succ.(a) <- b :: succ.(a);
        incr count
      end)
    edge_list;
  Array.iteri (fun j l -> pred.(j) <- List.sort compare l) pred;
  Array.iteri (fun j l -> succ.(j) <- List.sort compare l) succ;
  let (_ : int array) = topo_exn n pred succ in
  make_internal n pred succ !count

let topological_order t = topo_exn t.n t.pred t.succ

let eligible t ~completed j =
  List.for_all (fun p -> completed.(p)) t.pred.(j)

let components t =
  let label = Array.make t.n (-1) in
  let next = ref 0 in
  let stack = Stack.create () in
  for start = 0 to t.n - 1 do
    if label.(start) < 0 then begin
      let c = !next in
      incr next;
      Stack.push start stack;
      while not (Stack.is_empty stack) do
        let v = Stack.pop stack in
        if label.(v) < 0 then begin
          label.(v) <- c;
          List.iter (fun u -> if label.(u) < 0 then Stack.push u stack)
            t.pred.(v);
          List.iter (fun u -> if label.(u) < 0 then Stack.push u stack)
            t.succ.(v)
        end
      done
    end
  done;
  label
