let blocks inst =
  match Suu_dag.Forest.decompose (Instance.dag inst) with
  | Some blocks -> blocks
  | None -> invalid_arg "Suu_t.policy: precedence dag is not a forest"

let policy ?solver ?top_machines inst =
  let stages =
    Array.map
      (fun chains ->
        let prep = Suu_c.prepare ?top_machines ?solver inst ~chains in
        (Array.concat chains, Suu_c.policy_of_prepared ?solver inst prep))
      (blocks inst)
  in
  let nstages = Array.length stages in
  let m = Instance.m inst in
  let idle = Array.make m (-1) in
  let fresh rng =
    let stage = ref 0 in
    (* Index into the current block's jobs of the first remaining one:
       [remaining] only goes from true to false, so the block is done
       once this cursor reaches its end, and it never moves back. *)
    let first_live = ref 0 in
    let stepper = ref None in
    let rec step ~time ~remaining ~eligible =
      if !stage >= nstages then idle
      else begin
        let jobs, pol = stages.(!stage) in
        while
          !first_live < Array.length jobs && not remaining.(jobs.(!first_live))
        do
          incr first_live
        done;
        if !first_live >= Array.length jobs then begin
          stage := !stage + 1;
          first_live := 0;
          stepper := None;
          step ~time ~remaining ~eligible
        end
        else begin
          let s =
            match !stepper with
            | Some s -> s
            | None ->
                let s = Policy.fresh pol rng in
                stepper := Some s;
                s
          in
          s ~time ~remaining ~eligible
        end
      end
    in
    step
  in
  Policy.make ~name:"suu-t" ~fresh
