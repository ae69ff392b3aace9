type attempt = {
  solver : string;
  q : int;
  reason : Guard.reason;
  checkpoint : Guard.checkpoint;
  spent : Guard.spent;
}

type learned = {
  hypothesis : Hypothesis.t;
  err : float;
  solver : string;
  q_used : int;
  degraded : bool;
  attempts : attempt list;
}

let degradations = Obs.Metric.counter "degrade.stages_tried"

let combine_spent (a : Guard.spent) (b : Guard.spent) : Guard.spent =
  {
    fuel = a.fuel + b.fuel;
    elapsed_ns = (if Int64.compare a.elapsed_ns b.elapsed_ns >= 0 then a.elapsed_ns else b.elapsed_ns);
    table_rows = max a.table_rows b.table_rows;
    ball_peak = max a.ball_peak b.ball_peak;
    catalogue_entries = max a.catalogue_entries b.catalogue_entries;
  }

(* Keep whichever salvaged hypothesis has the lower empirical error;
   ties go to the earlier (richer-class) stage. *)
let better old ((_, err, _, _) as cand) =
  match old with
  | Some (_, err_o, _, _) when err_o <= err -> old
  | _ -> Some cand

let learn_chain ?budget ?radius g ~k ~ell ~q lam =
  match budget with
  | None ->
      let r = Erm_local.solve ?radius g ~k ~ell ~q lam in
      Guard.Complete
        {
          hypothesis = r.Erm_local.hypothesis;
          err = r.Erm_local.err;
          solver = "local";
          q_used = q;
          degraded = false;
          attempts = [];
        }
  | Some b ->
      let attempts = ref [] in
      let salvaged = ref None in
      (* one stage: done if it completed, else record the attempt, keep
         its salvage and go on with [next] *)
      let stage ~solver ~q ~degraded outcome next =
        match outcome with
        | Guard.Complete (hypothesis, err) ->
            Guard.Complete
              {
                hypothesis;
                err;
                solver;
                q_used = q;
                degraded;
                attempts = List.rev !attempts;
              }
        | Guard.Exhausted { best_so_far; reason; checkpoint; spent } ->
            attempts := { solver; q; reason; checkpoint; spent } :: !attempts;
            Option.iter
              (fun (h, err) -> salvaged := better !salvaged (h, err, solver, q))
              best_so_far;
            next ()
      in
      Obs.Metric.incr degradations;
      (* admission over the whole chain is decided once in [learn];
         the per-stage calls must burn real fuel so salvage and spend
         aggregation keep their pre-admission semantics *)
      stage ~solver:"local" ~q ~degraded:false
        (Guard.outcome_map
           (fun (r : Erm_local.result) -> (r.hypothesis, r.err))
           (Erm_local.solve_budgeted ~budget:(Guard.Budget.for_stage b)
              ~precheck:false ?radius g ~k ~ell ~q lam))
      @@ fun () ->
      (* fall back: exact brute-force ERM at strictly smaller
         quantifier rank, one fresh stage per rank, all racing the
         same absolute deadline *)
      let rec fallback q' =
        if q' < 0 then
          let reason, checkpoint, spent =
            match !attempts with
            | { reason; checkpoint; spent; _ } :: rest ->
                ( reason,
                  checkpoint,
                  List.fold_left
                    (fun acc (a : attempt) -> combine_spent acc a.spent)
                    spent rest )
            | [] -> assert false (* the first stage always records *)
          in
          Guard.Exhausted
            {
              best_so_far =
                Option.map
                  (fun (hypothesis, err, solver, q_used) ->
                    {
                      hypothesis;
                      err;
                      solver;
                      q_used;
                      degraded = true;
                      attempts = List.rev !attempts;
                    })
                  !salvaged;
              reason;
              checkpoint;
              spent;
            }
        else begin
          Obs.Metric.incr degradations;
          stage ~solver:"brute" ~q:q' ~degraded:true
            (Guard.outcome_map
               (fun (r : Erm_brute.result) -> (r.hypothesis, r.err))
               (Erm_brute.solve_budgeted ~budget:(Guard.Budget.for_stage b)
                  ~precheck:false g ~k ~ell ~q:q' lam))
            (fun () -> fallback (q' - 1))
        end
      in
      fallback (q - 1)

let learn ?budget ?(precheck = true) ?radius g ~k ~ell ~q lam =
  match
    Admission.degrade ?budget ?radius ~enabled:precheck ~what:"Degrade.learn" g
      ~k ~ell ~q lam
  with
  | Some rejected -> rejected
  | None -> learn_chain ?budget ?radius g ~k ~ell ~q lam
