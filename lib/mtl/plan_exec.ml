(* The columnar plan executors live beside their semantics' primitives:
   boolean in Offline, robust in Robust. *)

let eval_columns = Offline.eval_plan

let eval_columns_robust = Robust.eval_plan
