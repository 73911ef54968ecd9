(* Schema descriptions exported by wrappers: a collection ("interface" in the
   paper's IDL subset, Fig 3) is a named extent of objects with typed
   attributes. *)

type ty = Tbool | Tint | Tfloat | Tstring

let pp_ty ppf = function
  | Tbool -> Fmt.string ppf "boolean"
  | Tint -> Fmt.string ppf "long"
  | Tfloat -> Fmt.string ppf "double"
  | Tstring -> Fmt.string ppf "string"

type attribute = { attr_name : string; attr_type : ty }

type collection = {
  coll_name : string;
  attributes : attribute list;
}

let collection name attrs =
  { coll_name = name;
    attributes = List.map (fun (attr_name, attr_type) -> { attr_name; attr_type }) attrs }

let attribute_names c = List.map (fun a -> a.attr_name) c.attributes

let find_attribute c name =
  List.find_opt (fun a -> String.equal a.attr_name name) c.attributes

let has_attribute c name = Option.is_some (find_attribute c name)

let attr_index c name =
  let rec go i = function
    | [] -> None
    | a :: _ when String.equal a.attr_name name -> Some i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 c.attributes
