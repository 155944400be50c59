# Asserts that no file under ${RTL_DIR} (src/rtl) includes a header from a
# layer built on top of it: lint/, fault/, units/, kernel/, analysis/ or
# serve/. rtl sits below all of them, so such an include closes a cycle
# between the layers (an upper layer's header pulling rtl back in).
file(GLOB sources ${RTL_DIR}/*.hpp ${RTL_DIR}/*.cpp)
if(NOT sources)
  message(FATAL_ERROR "no sources under ${RTL_DIR}")
endif()

set(violations "")
foreach(src ${sources})
  file(STRINGS ${src} includes
       REGEX "^[ \t]*#[ \t]*include[ \t]*[\"<](lint|fault|units|kernel|analysis|serve)/")
  foreach(line ${includes})
    get_filename_component(name ${src} NAME)
    string(STRIP "${line}" line)
    string(APPEND violations "\n  rtl/${name}: ${line}")
  endforeach()
endforeach()

if(violations)
  message(FATAL_ERROR
          "src/rtl includes headers from the layers above it:${violations}")
endif()
