type t = {
  iname : string;
  njobs : int;
  nmachines : int;
  qm : float array array; (* m x n *)
  ell : float array array; (* m x n; -log2 q, possibly infinite *)
  best : int array; (* per job, machine with minimal q *)
  g : Suu_dag.Dag.t;
}

let make ?(name = "suu") ~dag q =
  let m = Array.length q in
  if m = 0 then invalid_arg "Instance.make: no machines";
  let n = Array.length q.(0) in
  if n = 0 then invalid_arg "Instance.make: no jobs";
  Array.iter
    (fun row ->
      if Array.length row <> n then invalid_arg "Instance.make: ragged matrix")
    q;
  if Suu_dag.Dag.size dag <> n then
    invalid_arg "Instance.make: dag size mismatch";
  let qm = Array.map Array.copy q in
  let ell = Array.make_matrix m n 0.0 in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let v = qm.(i).(j) in
      if not (v >= 0.0 && v <= 1.0) then
        invalid_arg "Instance.make: q out of [0,1]";
      ell.(i).(j) <- (if v = 0.0 then infinity else -.(log v /. log 2.0))
    done
  done;
  let best = Array.make n 0 in
  for j = 0 to n - 1 do
    let b = ref 0 in
    for i = 1 to m - 1 do
      if qm.(i).(j) < qm.(!b).(j) then b := i
    done;
    if qm.(!b).(j) >= 1.0 then
      invalid_arg "Instance.make: a job fails on every machine";
    best.(j) <- !b
  done;
  { iname = name; njobs = n; nmachines = m; qm; ell; best; g = dag }

let name t = t.iname
let n t = t.njobs
let m t = t.nmachines
let dag t = t.g
let q t i j = t.qm.(i).(j)
let log_failure t i j = t.ell.(i).(j)
let log_failure_rows t = t.ell

let clipped_log_failure t ~target i j = Float.min t.ell.(i).(j) target

let best_machine t j = t.best.(j)

let jobs t = List.init t.njobs (fun j -> j)
