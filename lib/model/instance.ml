(* Directory instances — the directory information forest (Sections 3.2-3.3).

   An instance holds the entry set R keyed by distinguished name.  The map
   is keyed by the reverse-dn string key, so in-order traversal yields the
   canonical sorted order and each subtree is a contiguous key range (the
   same layout a disk-resident directory would use).

   Queries map instances to sub-instances over the same schema (Section 4.1),
   so query results can themselves be wrapped back into instances —
   the closure property the paper emphasizes. *)

module Smap = Map.Make (String)

(* [size] is [Smap.cardinal entries], maintained by every update so that
   the planner reads it in O(1). *)
type t = { schema : Schema.t; entries : Entry.t Smap.t; size : int }

type violation =
  | Duplicate_dn of Dn.t
  | Rdn_not_in_values of Dn.t  (* Def 3.2(d)(ii) *)
  | No_class of Dn.t  (* Def 3.2(b): class set must be non-empty *)
  | Unknown_class of Dn.t * string
  | Attr_not_allowed of Dn.t * string  (* Def 3.2(c)1 *)
  | Attr_wrong_type of Dn.t * string * Value.ty  (* Def 3.2(c)1 *)
  | Unknown_attr of Dn.t * string

let pp_violation ppf = function
  | Duplicate_dn dn -> Fmt.pf ppf "duplicate dn %a" Dn.pp dn
  | Rdn_not_in_values dn -> Fmt.pf ppf "rdn of %a not among its values" Dn.pp dn
  | No_class dn -> Fmt.pf ppf "%a belongs to no class" Dn.pp dn
  | Unknown_class (dn, c) -> Fmt.pf ppf "%a: unknown class %s" Dn.pp dn c
  | Attr_not_allowed (dn, a) ->
      Fmt.pf ppf "%a: attribute %s not allowed by any of its classes" Dn.pp dn a
  | Attr_wrong_type (dn, a, ty) ->
      Fmt.pf ppf "%a: attribute %s has a value that is not of type %s" Dn.pp dn
        a (Value.ty_to_string ty)
  | Unknown_attr (dn, a) -> Fmt.pf ppf "%a: undeclared attribute %s" Dn.pp dn a

exception Invalid of violation

let empty schema = { schema; entries = Smap.empty; size = 0 }
let schema t = t.schema
let size t = t.size

(* Check one entry against Definition 3.2 (given the rest of R is checked
   separately for key uniqueness by the map). *)
let check_entry schema e =
  let dn = Entry.dn e in
  (match Entry.rdn e with
  | None -> raise (Invalid (Rdn_not_in_values dn))  (* root is not an entry *)
  | Some rdn ->
      if not (Rdn.subset_of_values rdn (Entry.attrs e)) then
        raise (Invalid (Rdn_not_in_values dn)));
  let class_names = Entry.classes e in
  if class_names = [] then raise (Invalid (No_class dn));
  List.iter
    (fun c ->
      if not (Schema.has_class schema c) then
        raise (Invalid (Unknown_class (dn, c))))
    class_names;
  List.iter
    (fun (a, v) ->
      match Schema.attr_type schema a with
      | None -> raise (Invalid (Unknown_attr (dn, a)))
      | Some ty ->
          if Value.type_of v <> ty then
            raise (Invalid (Attr_wrong_type (dn, a, ty)));
          if not (Schema.attr_allowed_by schema ~class_names a) then
            raise (Invalid (Attr_not_allowed (dn, a))))
    (Entry.attrs e)

let add ?(validate = true) t e =
  if validate then check_entry t.schema e;
  let key = Entry.key e in
  if Smap.mem key t.entries then raise (Invalid (Duplicate_dn (Entry.dn e)));
  { t with entries = Smap.add key e t.entries; size = t.size + 1 }

(* Insert or overwrite [e]; only a new key grows the count. *)
let put t e =
  let key = Entry.key e in
  let size = if Smap.mem key t.entries then t.size else t.size + 1 in
  { t with entries = Smap.add key e t.entries; size }

let replace ?(validate = true) t e =
  if validate then check_entry t.schema e;
  put t e

let remove t dn =
  let key = Dn.rev_key dn in
  if Smap.mem key t.entries then
    { t with entries = Smap.remove key t.entries; size = t.size - 1 }
  else t

let find t dn = Smap.find_opt (Dn.rev_key dn) t.entries
let mem t dn = Smap.mem (Dn.rev_key dn) t.entries

let of_entries ?(validate = true) schema es =
  List.fold_left (add ~validate) (empty schema) es

(* Wrap a result entry set back into an instance (closure property). *)
let of_result t es = List.fold_left put (empty t.schema) es

let iter f t = Smap.iter (fun _ e -> f e) t.entries
let fold f init t = Smap.fold (fun _ e acc -> f acc e) t.entries init
let to_list t = List.rev (fold (fun acc e -> e :: acc) [] t)

(* --- Subtree ranges --------------------------------------------------- *)

(* The subtree rooted at [base]: [base]'s own entry, if present, and
   the map of the entries strictly below it.  Their keys are exactly the
   range ([rev_key base], [hi]), where [hi] is [rev_key base] with its
   closing '\x01' raised to '\x02': no key inside the subtree reaches
   it, and every key outside that sorts above [rev_key base] does.  The
   two splits allocate O(log n) and nothing per entry. *)
let range t base =
  let prefix = Dn.rev_key base in
  let n = String.length prefix in
  if n = 0 then (None, t.entries)
  else
    let hi = Bytes.of_string prefix in
    Bytes.set hi (n - 1) '\x02';
    let _, at, above = Smap.split prefix t.entries in
    let below, _, _ = Smap.split (Bytes.unsafe_to_string hi) above in
    (at, below)

(* All entries at or below [base], in canonical order. *)
let subtree t base =
  let at, below = range t base in
  let rest = List.rev (Smap.fold (fun _ e acc -> e :: acc) below []) in
  match at with Some e -> e :: rest | None -> rest

let subtree_size t base =
  match base with
  | [] -> t.size
  | _ ->
      let at, below = range t base in
      Smap.cardinal below + if Option.is_some at then 1 else 0

let children t base =
  let d = Dn.depth base + 1 in
  List.filter (fun e -> Dn.depth (Entry.dn e) = d) (subtree t base)

let roots t =
  fold
    (fun acc e ->
      match Dn.parent (Entry.dn e) with
      | Some p when p <> Dn.root && mem t p -> acc
      | _ -> e :: acc)
    [] t
  |> List.rev

(* Full well-formedness check of Definition 3.2; returns all violations. *)
let validate t =
  fold
    (fun acc e ->
      match check_entry t.schema e with
      | () -> acc
      | exception Invalid v -> v :: acc)
    [] t
  |> List.rev

(* --- External-memory view --------------------------------------------- *)

(* The instance as a disk-resident sorted list; no I/O is charged for the
   conversion itself (the directory is already on disk), scans of the
   result charge normally. *)
let to_ext_list pager t = Ext_list.of_array_resident pager (Array.of_list (to_list t))

let subtree_ext_list pager t base =
  Ext_list.of_array_resident pager (Array.of_list (subtree t base))
