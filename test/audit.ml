module Instance = Suu_core.Instance
module Trace = Suu_sim.Trace

type violation = { step : int; message : string }

let completion_times inst ~trace ~steps =
  let n = Instance.n inst in
  let mass = Array.make n 0.0 in
  let done_at = Array.make n (-1) in
  for j = 0 to n - 1 do
    if Trace.threshold trace j <= 0.0 then done_at.(j) <- 0
  done;
  Array.iteri
    (fun t row ->
      Array.iteri
        (fun i j ->
          if j >= 0 && j < n && done_at.(j) < 0 then
            mass.(j) <- mass.(j) +. Instance.log_failure inst i j)
        row;
      for j = 0 to n - 1 do
        if done_at.(j) < 0 && mass.(j) >= Trace.threshold trace j -. 1e-12
        then done_at.(j) <- t + 1
      done)
    steps;
  done_at

let check inst ~trace ~steps =
  let n = Instance.n inst and m = Instance.m inst in
  let g = Instance.dag inst in
  let mass = Array.make n 0.0 in
  let completed = Array.make n false in
  for j = 0 to n - 1 do
    if Trace.threshold trace j <= 0.0 then completed.(j) <- true
  done;
  let error = ref None in
  let fail t msg = if !error = None then error := Some { step = t; message = msg } in
  Array.iteri
    (fun t row ->
      if !error = None then begin
        if Array.length row <> m then
          fail t
            (Printf.sprintf "row has %d entries for %d machines"
               (Array.length row) m)
        else begin
          Array.iteri
            (fun i j ->
              if !error = None && j <> -1 then
                if j < 0 || j >= n then
                  fail t (Printf.sprintf "machine %d assigned bad job %d" i j)
                else if not completed.(j) then begin
                  if
                    not
                      (List.for_all
                         (fun p -> completed.(p))
                         (Suu_dag.Dag.preds g j))
                  then
                    fail t
                      (Printf.sprintf "machine %d ran ineligible job %d" i j)
                  else mass.(j) <- mass.(j) +. Instance.log_failure inst i j
                end)
            row;
          (* End-of-step completions, as in the model. *)
          for j = 0 to n - 1 do
            if
              (not completed.(j))
              && mass.(j) >= Trace.threshold trace j -. 1e-12
            then completed.(j) <- true
          done
        end
      end)
    steps;
  match !error with
  | Some v -> Error v
  | None ->
      let unfinished = ref [] in
      for j = n - 1 downto 0 do
        if not completed.(j) then unfinished := j :: !unfinished
      done;
      if !unfinished = [] then Ok ()
      else
        Error
          {
            step = Array.length steps;
            message =
              Printf.sprintf "jobs left incomplete: %s"
                (String.concat ", " (List.map string_of_int !unfinished));
          }
